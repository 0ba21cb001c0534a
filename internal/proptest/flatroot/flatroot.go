// Package flatroot is a test-side oracle: the state-root definition the
// ledger used before the bucketed commitment (ledger/stateroot.go),
// computed from exported state maps alone. It shares no code with the
// production root, so "same flat root ⇔ same header root" across
// replicas, and the literals the golden tests keep for it, prove that
// the leaf set and record encodings did not move — only the tree over
// them. It imports neither ledger nor market so their tests can use it.
package flatroot

import (
	"bytes"
	"encoding/binary"
	"slices"

	"pds2/internal/crypto"
	"pds2/internal/identity"
)

// Of returns the Merkle root over, in order: one 'B' record per
// non-zero balance and one 'N' record per non-zero nonce, each by
// ascending address, then one 'S' record per non-empty storage value,
// by ascending contract address and key.
func Of(balances, nonces map[identity.Address]uint64, storage map[identity.Address]map[string][]byte) crypto.Digest {
	var leaves [][]byte
	u64Records := func(tag byte, m map[identity.Address]uint64) {
		for _, a := range sortedKeys(m) {
			if m[a] == 0 {
				continue
			}
			rec := append([]byte{tag}, a[:]...)
			leaves = append(leaves, binary.BigEndian.AppendUint64(rec, m[a]))
		}
	}
	u64Records('B', balances)
	u64Records('N', nonces)
	for _, a := range sortedKeys(storage) {
		slot := storage[a]
		keys := make([]string, 0, len(slot))
		for k := range slot {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		for _, k := range keys {
			if len(slot[k]) == 0 {
				continue
			}
			rec := append([]byte{'S'}, a[:]...)
			rec = binary.BigEndian.AppendUint64(rec, uint64(len(k)))
			rec = append(rec, k...)
			leaves = append(leaves, append(rec, slot[k]...))
		}
	}
	return crypto.MerkleRootOf(leaves)
}

func sortedKeys[V any](m map[identity.Address]V) []identity.Address {
	addrs := make([]identity.Address, 0, len(m))
	for a := range m {
		addrs = append(addrs, a)
	}
	slices.SortFunc(addrs, func(a, b identity.Address) int { return bytes.Compare(a[:], b[:]) })
	return addrs
}
