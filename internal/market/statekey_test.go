package market

import (
	"bytes"
	"testing"

	"pds2/internal/contract"
	"pds2/internal/crypto"
	"pds2/internal/identity"
	"pds2/internal/ledger"
	"pds2/internal/policy"
	"pds2/internal/vm"
)

// TestInvalidUTF8StateKeyReverts pins the bytes-clean state rule. A
// snapshot carries storage keys as JSON strings, which spell a byte
// that is not valid UTF-8 as U+FFFD, so a key holding one would not
// survive a restore. A policy program that stores under a key built
// from a purpose with such a byte therefore reverts the enforcement,
// and a snapshot of the chain restores to the head's state root.
func TestInvalidUTF8StateKeyReverts(t *testing.T) {
	rng := crypto.NewDRBGFromUint64(40, "statekey")
	owner := identity.New("owner", rng.Fork("owner"))
	m, err := New(Config{Seed: 40, GenesisAlloc: map[identity.Address]uint64{owner.Address(): 1_000_000}})
	if err != nil {
		t.Fatal(err)
	}
	dataID := crypto.HashString("statekey-dataset")
	artifact, err := vm.BuildSource(`store("p/" + purpose, 1) allow`)
	if err != nil {
		t.Fatal(err)
	}
	for _, data := range [][]byte{
		RegisterDataData(dataID, crypto.HashString("statekey-meta")),
		DeployPolicyData(dataID, artifact),
		EnforcePolicyData(policy.LayerMatch, DefaultComputationClass, "good", 1, dataID),
	} {
		if _, err := MustSucceed(m.SendAndSeal(owner, m.Registry, 0, data)); err != nil {
			t.Fatal(err)
		}
	}
	rcpt, err := m.SendAndSeal(owner, m.Registry, 0,
		EnforcePolicyData(policy.LayerMatch, DefaultComputationClass, "bad\xffpurpose", 1, dataID))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ledger.WriteSnapshot(&buf, m.Chain.ExportSnapshot()); err != nil {
		t.Fatal(err)
	}
	snap, err := ledger.ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := ledger.NewChainFromSnapshot(snap, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := restored.State().Root(), m.Chain.State().Root(); got != want {
		t.Fatalf("restored root %s, head %s", got.Short(), want.Short())
	}
	key := "polstate/" + dataID.Hex() + "/p/bad\xffpurpose"
	want := contract.Revertf("policy program for %s: %v", dataID.Short(),
		contract.Revertf("state key %q is not valid UTF-8", key)).Error()
	if rcpt.Succeeded() || rcpt.Err != want {
		t.Fatalf("enforcePolicy with a bad purpose: status %v, err %q, want %q", rcpt.Status, rcpt.Err, want)
	}
}
