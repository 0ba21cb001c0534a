package market

import (
	"testing"

	"pds2/internal/crypto"
	"pds2/internal/identity"
	"pds2/internal/ledger"
	"pds2/internal/policy"
	"pds2/internal/proptest/flatroot"
)

// TestChainGolden pins the head block hash and state root of a
// fixed-seed chain — the market's four set-up blocks plus three blocks
// of transfers (one overdrawn), a registry contract call and a policy
// write — to literals. Every replay oracle compares replicas built from
// the same code; only a literal catches a change that moves all of them
// together. wantFlatRoot is the same state's digest under the flat
// state-root definition the bucketed commitment replaced (computed at
// the commit before the parallel executor and state sharding were
// removed); the oracle reproducing it proves the chain's records and
// their encodings did not move, only the tree over them — and with it
// the header roots and the block hashes that cover them.
func TestChainGolden(t *testing.T) {
	rng := crypto.NewDRBGFromUint64(2021, "golden")
	ids := make([]*identity.Identity, 3)
	alloc := map[identity.Address]uint64{}
	for i := range ids {
		ids[i] = identity.New("acct", rng.Fork("id"))
		alloc[ids[i].Address()] = 1_000
	}
	m, err := New(Config{Seed: 2021, GenesisAlloc: alloc})
	if err != nil {
		t.Fatal(err)
	}
	// seal submits txs and seals them into one block; arguments are
	// signed by the caller after the previous seal, so SignedTx sees
	// the advanced nonces.
	seal := func(txs ...*ledger.Transaction) {
		t.Helper()
		for _, tx := range txs {
			if err := m.Submit(tx); err != nil {
				t.Fatalf("submit: %v", err)
			}
		}
		block, err := m.SealBlock()
		if err != nil {
			t.Fatalf("seal: %v", err)
		}
		if len(block.Txs) != len(txs) {
			t.Fatalf("block %d sealed %d txs, want %d", block.Header.Height, len(block.Txs), len(txs))
		}
	}
	mustSucceed := func(tx *ledger.Transaction) {
		t.Helper()
		if rcpt, ok := m.Chain.Receipt(tx.Hash()); !ok || !rcpt.Succeeded() {
			t.Fatalf("contract call did not succeed: %+v", rcpt)
		}
	}
	dataID := crypto.HashString("golden-dataset")
	seal(
		m.SignedTx(ids[0], ids[1].Address(), 250, nil),
		m.SignedTx(ids[2], ids[0].Address(), 5_000, nil), // overdraft: failed receipt, nonce consumed
	)
	register := m.SignedTx(ids[0], m.Registry, 0, RegisterDataData(dataID, crypto.HashString("golden-meta")))
	seal(register, m.SignedTx(ids[1], ids[2].Address(), 40, nil))
	mustSucceed(register)
	setPolicy := m.SignedTx(ids[0], m.Registry, 0, SetPolicyData(dataID, &policy.Policy{
		AllowedClasses: []string{"training"}, MinAggregation: 3, MaxInvocations: 2,
	}))
	seal(setPolicy)
	mustSucceed(setPolicy)

	const (
		wantHeight = 7
		wantHead   = "ba0d594a232a84ae923ea7a790df06f0f0f7c5568f625c20b6b112e6274161e3"
		wantRoot   = "f11a39460db3b0bc24f745b0cf01542132caf02cc4bcffa852ab56c70cd130ee"

		wantFlatRoot = "5f98986acd6d265668efd8a1a9eff059489eccaf3e31c5a105fc034af164b273"
	)
	head := m.Chain.Head()
	if head.Header.Height != wantHeight {
		t.Fatalf("height = %d, want %d", head.Header.Height, wantHeight)
	}
	if got := head.Hash().Hex(); got != wantHead {
		t.Errorf("head hash  = %s, want %s", got, wantHead)
	}
	if got := m.Chain.State().Root().Hex(); got != wantRoot {
		t.Errorf("state root = %s, want %s", got, wantRoot)
	}
	snap := m.Chain.ExportSnapshot()
	if got := flatroot.Of(snap.Balances, snap.Nonces, snap.Storage).Hex(); got != wantFlatRoot {
		t.Errorf("flat oracle = %s, want %s", got, wantFlatRoot)
	}
}
