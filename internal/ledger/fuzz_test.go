package ledger

import (
	"bytes"
	"encoding/json"
	"testing"

	"pds2/internal/crypto"
	"pds2/internal/identity"
)

// fuzzChainExport builds a small valid chain and returns its export
// bytes — the seed corpus for the block-import fuzz target.
func fuzzChainExport(t testing.TB) []byte {
	rng := crypto.NewDRBGFromUint64(7, "ledger-fuzz")
	auth := identity.New("auth", rng.Fork("auth"))
	alice := identity.New("alice", rng.Fork("alice"))
	bob := identity.New("bob", rng.Fork("bob"))
	chain, err := NewChain(ChainConfig{
		Authorities: []identity.Address{auth.Address()},
		GenesisAlloc: map[identity.Address]uint64{
			alice.Address(): 10_000,
			bob.Address():   5_000,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	txs := []*Transaction{
		SignTx(alice, bob.Address(), 100, 0, TxBaseGas, nil),
		SignTx(bob, alice.Address(), 50, 0, TxBaseGas, nil),
	}
	if _, err := chain.ProposeBlock(auth, 1, txs); err != nil {
		t.Fatal(err)
	}
	if _, err := chain.ProposeBlock(auth, 2, []*Transaction{
		SignTx(alice, bob.Address(), 7, 1, TxBaseGas, nil),
	}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := chain.Export(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzTxDecode feeds arbitrary JSON to the transaction decoder and runs
// the full stateless pipeline over whatever decodes: Hash, IntrinsicGas
// and VerifyBasic must never panic, and a transaction that round-trips
// through JSON must keep its hash.
func FuzzTxDecode(f *testing.F) {
	rng := crypto.NewDRBGFromUint64(3, "tx-fuzz")
	from := identity.New("from", rng.Fork("from"))
	to := identity.New("to", rng.Fork("to"))
	valid := SignTx(from, to.Address(), 42, 0, TxBaseGas+100, []byte("payload"))
	seed, _ := json.Marshal(valid)
	f.Add(seed)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"from":"xx","nonce":18446744073709551615}`))
	f.Add([]byte(`garbage`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var tx Transaction
		if err := json.Unmarshal(data, &tx); err != nil {
			return
		}
		h1 := tx.Hash()
		_ = tx.IntrinsicGas()
		_ = tx.VerifyBasic() // must not panic, any verdict is fine
		round, err := json.Marshal(&tx)
		if err != nil {
			t.Fatalf("re-marshal failed: %v", err)
		}
		var tx2 Transaction
		if err := json.Unmarshal(round, &tx2); err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if tx2.Hash() != h1 {
			t.Fatalf("hash changed across JSON round-trip: %s != %s", tx2.Hash().Short(), h1.Short())
		}
	})
}

// FuzzBlockImport mutates serialized chain exports and replays them
// through the full validation pipeline. Replay must never panic, and
// any export it accepts must leave a chain whose head commits to the
// recomputed state root — i.e. the importer can be fed attacker bytes
// and still only ever admits internally consistent chains.
func FuzzBlockImport(f *testing.F) {
	f.Add(fuzzChainExport(f))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"authorities":[],"blocks":[]}`))
	f.Add([]byte(`not json`))
	// JSON nulls where a block or a transaction belongs: the pure checks
	// run on worker goroutines ahead of the parent check, so they must
	// reject a nil pointer rather than dereference it.
	f.Add([]byte(`{"authorities":["0000000000000000000000000000000000000000"],"blocks":[null]}`))
	f.Add([]byte(`{"authorities":["0000000000000000000000000000000000000000"],"blocks":[{"txs":[null]}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		chain, err := Replay(bytes.NewReader(data), nil)
		if err != nil {
			return // rejected: fine, as long as it did not panic
		}
		head := chain.Head()
		if root := chain.State().Root(); root != head.Header.StateRoot {
			t.Fatalf("accepted chain with inconsistent root: %s != header %s",
				root.Short(), head.Header.StateRoot.Short())
		}
		// That root is the incrementally maintained one; a snapshot
		// restore recomputes it from scratch.
		if _, err := NewChainFromSnapshot(chain.ExportSnapshot(), nil); err != nil {
			t.Fatalf("accepted chain does not rebuild: %v", err)
		}
		if chain.State().JournalLen() != 0 {
			t.Fatalf("accepted chain left %d uncommitted journal entries", chain.State().JournalLen())
		}
	})
}
