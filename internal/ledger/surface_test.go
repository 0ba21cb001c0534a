package ledger

import (
	"testing"

	"pds2/internal/identity"
)

// eventfulApplier wraps TransferApplier and tags each successful
// transfer with an event from the recipient "contract", alternating
// topics by value parity — enough structure to exercise the event-log
// query surface without a full contract runtime.
type eventfulApplier struct{ inner TransferApplier }

func (a eventfulApplier) Apply(st *State, tx *Transaction, height uint64) (*Receipt, error) {
	rcpt, err := a.inner.Apply(st, tx, height)
	if err != nil || !rcpt.Succeeded() {
		return rcpt, err
	}
	topic := "even"
	if tx.Value%2 == 1 {
		topic = "odd"
	}
	rcpt.Events = append(rcpt.Events, Event{Contract: tx.To, Topic: topic, Data: []byte{byte(height)}})
	return rcpt, err
}

// TestChainQuerySurface pins the exported read-only surface external
// consumers (audit tooling, the durable store, the API layer) build
// on: gas limit, commit hooks, event-log filtering, export config and
// the state enumeration accessors.
func TestChainQuerySurface(t *testing.T) {
	authority := testIdentity(100)
	alice := testIdentity(1)
	bob := testIdentity(2)
	carol := testIdentity(3)
	chain, err := NewChain(ChainConfig{
		Authorities: []identity.Address{authority.Address()},
		GenesisAlloc: map[identity.Address]uint64{
			alice.Address(): 1_000,
			bob.Address():   500,
		},
		Applier: eventfulApplier{},
	})
	if err != nil {
		t.Fatal(err)
	}

	if got := chain.GasLimit(); got != DefaultBlockGasLimit {
		t.Fatalf("GasLimit() = %d, want default %d", got, DefaultBlockGasLimit)
	}

	var committed []*Block
	chain.SetOnCommit(func(b *Block) { committed = append(committed, b) })

	txs := []*Transaction{
		SignTx(alice, bob.Address(), 100, 0, 50_000, nil),   // even → bob
		SignTx(alice, carol.Address(), 101, 1, 50_000, nil), // odd → carol
	}
	if _, err := chain.ProposeBlock(authority, 1, txs); err != nil {
		t.Fatal(err)
	}
	if len(committed) != 1 || committed[0].Header.Height != 1 {
		t.Fatalf("commit hook saw %d blocks", len(committed))
	}
	chain.SetOnCommit(nil)
	if _, err := chain.ProposeBlock(authority, 2, nil); err != nil {
		t.Fatal(err)
	}
	if len(committed) != 1 {
		t.Fatal("removed commit hook still fired")
	}

	if got := len(chain.Events("")); got != 2 {
		t.Fatalf("Events(\"\") = %d events, want 2", got)
	}
	if got := chain.Events("odd"); len(got) != 1 || got[0].Contract != carol.Address() {
		t.Fatalf("Events(odd) = %+v", got)
	}
	if got := chain.EventsFrom(bob.Address(), ""); len(got) != 1 || got[0].Topic != "even" {
		t.Fatalf("EventsFrom(bob) = %+v", got)
	}
	if got := chain.EventsFrom(bob.Address(), "odd"); len(got) != 0 {
		t.Fatalf("EventsFrom(bob, odd) = %+v, want none", got)
	}
	if got := chain.EventsFrom(carol.Address(), "odd"); len(got) != 1 {
		t.Fatalf("EventsFrom(carol, odd) = %+v", got)
	}

	exp := chain.ExportConfig()
	if len(exp.Blocks) != 0 {
		t.Fatalf("ExportConfig carried %d blocks", len(exp.Blocks))
	}
	if len(exp.Authorities) != 1 || exp.Authorities[0] != authority.Address() {
		t.Fatalf("ExportConfig authorities = %v", exp.Authorities)
	}
	if exp.BlockGasLimit != DefaultBlockGasLimit || exp.GenesisAlloc[alice.Address()] != 1_000 {
		t.Fatal("ExportConfig dropped config fields")
	}

	if got := chain.State().TotalBalance(); got != 1_500 {
		t.Fatalf("TotalBalance() = %d after transfers, want conserved 1500", got)
	}
	accounts := chain.State().Accounts()
	want := map[identity.Address]bool{alice.Address(): true, bob.Address(): true, carol.Address(): true}
	for _, a := range accounts {
		delete(want, a)
	}
	if len(want) != 0 {
		t.Fatalf("Accounts() missing %v (got %v)", want, accounts)
	}

	if got := NewMempool(7).Cap(); got != 7 {
		t.Fatalf("Mempool.Cap() = %d, want 7", got)
	}
}

// TestExternalProposerSealAndImport builds a block outside the chain —
// the post-state root and gas come from executing the transaction on a
// twin chain, the exported TxRoot and Seal give the header commitment
// and signature — and imports it through the full validation path.
// This is the external-proposer (and forgery-harness) workflow Seal and
// TxRoot exist for.
func TestExternalProposerSealAndImport(t *testing.T) {
	chain, authority, alice, bob := testChain(t)
	twin, _, _, _ := testChain(t)

	tx := SignTx(alice, bob.Address(), 100, 0, 50_000, nil)
	executed, err := twin.ProposeBlock(authority, 7, []*Transaction{tx})
	if err != nil {
		t.Fatal(err)
	}

	parent := chain.Head()
	blk := &Block{
		Header: Header{
			Parent:    parent.Hash(),
			Height:    1,
			Timestamp: parent.Header.Timestamp + 1,
			TxRoot:    TxRoot([]*Transaction{tx}),
			StateRoot: executed.Header.StateRoot,
			GasUsed:   executed.Header.GasUsed,
		},
		Txs: []*Transaction{tx},
	}
	blk.Seal(authority)
	if blk.Hash() == executed.Hash() {
		t.Fatal("externally sealed block should differ from the twin's (timestamp)")
	}
	if err := chain.ImportBlock(blk); err != nil {
		t.Fatalf("import externally sealed block: %v", err)
	}
	if chain.State().Balance(bob.Address()) != 600 {
		t.Fatal("imported block did not apply")
	}
}
