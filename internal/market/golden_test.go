package market

import (
	"testing"

	"pds2/internal/crypto"
	"pds2/internal/identity"
	"pds2/internal/ledger"
	"pds2/internal/policy"
)

// TestChainGolden pins the head block hash and state root of a
// fixed-seed chain — the market's four set-up blocks plus three blocks
// of transfers (one overdrawn), a registry contract call and a policy
// write — to literals computed at the commit before the parallel
// executor and state sharding were removed. Every replay oracle compares
// replicas built from the same code; only a literal catches a change
// that moves all of them together.
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
		wantHead   = "9b6c4900fa8d9b099743a810762ff8b5f8517c2e98a1d8a791a98fdc5cf72eb4"
		wantRoot   = "5f98986acd6d265668efd8a1a9eff059489eccaf3e31c5a105fc034af164b273"
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
}
