package ledger

import (
	"testing"

	"pds2/internal/proptest/flatroot"
)

// TestStateRootGolden pins the State.Root() definition to a literal. The
// replay oracles all compare replicas built from the same code, so a
// silent redefinition of the root would pass every one of them. wantFlat
// is the digest of the same state under the flat definition the bucketed
// commitment replaced (computed before the single-lock State refactor);
// the oracle still reproducing it proves the leaf set and the record
// encodings did not move, only the tree over them.
func TestStateRootGolden(t *testing.T) {
	st := NewState()
	a, b, zero := testAddr(1), testAddr(2), testAddr(3)
	c1, c2 := testAddr(10), testAddr(11)
	st.SetBalance(a, 1_000)
	st.SetBalance(b, 7)
	st.SetBalance(zero, 0) // explicit zero: absent from the root
	st.BumpNonce(a)
	st.BumpNonce(a)
	st.SetNonce(b, 9)
	st.SetStorage(c1, "owner", a[:])
	st.SetStorage(c1, "w/2", []byte("second"))
	st.SetStorage(c1, "w/1", []byte("first"))
	st.SetStorage(c2, "kept", []byte{0x00, 0xff})
	st.SetStorage(c2, "gone", []byte("x"))
	st.Commit()
	st.SetStorage(c2, "gone", nil) // deleted key: absent from the root

	const (
		want     = "0cb442a66fe527cc2ef9b58d61662489a0899e2187a05e7562cc9d2c1ceceaf2"
		wantFlat = "f99a759cb4abaac977b8d72f3a86f5f9ce424183a9a9ddd0532c156b142ec3c0"
	)
	if got := st.Root().Hex(); got != want {
		t.Fatalf("State.Root() = %s, want %s", got, want)
	}
	if got := flatroot.Of(st.balances, st.nonces, st.storage).Hex(); got != wantFlat {
		t.Fatalf("flat oracle = %s, want %s", got, wantFlat)
	}
	// A reverted mutation leaves the root where it was.
	snap := st.Snapshot()
	st.SetBalance(zero, 5)
	st.SetStorage(c2, "gone", []byte("back"))
	st.RevertTo(snap)
	if got := st.Root().Hex(); got != want {
		t.Fatalf("State.Root() after revert = %s, want %s", got, want)
	}
}
