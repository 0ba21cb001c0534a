package crypto

import (
	"errors"
	"fmt"
)

// Domain-separation prefixes for Merkle hashing. Leaves and interior
// nodes are hashed under different prefixes so that a proof for a leaf
// can never be re-interpreted as a proof for an interior node.
var (
	merkleLeafPrefix = []byte{0x00}
	merkleNodePrefix = []byte{0x01}
)

// MerkleTree is an immutable binary Merkle tree over a list of leaves.
// It is used by the ledger (transaction roots), by the storage subsystem
// (chunked dataset integrity) and by the governance layer (audit logs).
//
// The tree for n leaves is the unbalanced "Bitcoin-style" construction:
// an odd node at the end of a level is promoted unchanged to the level
// above, so no leaf is ever duplicated and second-preimage attacks via
// duplicated leaves are impossible.
type MerkleTree struct {
	levels [][]Digest // levels[0] are leaf hashes, last level is the root
}

// NewMerkleTree builds the tree for the given leaf payloads.
// It returns an error for an empty leaf list: an empty tree has no
// well-defined root and callers should use ZeroDigest explicitly instead.
func NewMerkleTree(leaves [][]byte) (*MerkleTree, error) {
	if len(leaves) == 0 {
		return nil, errors.New("crypto: merkle tree requires at least one leaf")
	}
	level := make([]Digest, len(leaves))
	for i, leaf := range leaves {
		level[i] = MerkleLeaf(leaf)
	}
	t := &MerkleTree{levels: [][]Digest{level}}
	for len(level) > 1 {
		level = AppendMerkleLevel(make([]Digest, 0, (len(level)+1)/2), level)
		t.levels = append(t.levels, level)
	}
	return t, nil
}

// AppendMerkleLevel appends the level above level to dst: adjacent pairs
// hash together (MerkleNode), an odd node at the end is promoted
// unchanged. dst may alias level's backing array from its start — each
// write lands behind the reads that feed it.
func AppendMerkleLevel(dst, level []Digest) []Digest {
	for i := 0; i < len(level); i += 2 {
		if i+1 < len(level) {
			dst = append(dst, MerkleNode(level[i], level[i+1]))
		} else {
			dst = append(dst, level[i])
		}
	}
	return dst
}

// MerkleLeaf returns the leaf-level digest of one leaf payload.
func MerkleLeaf(leaf []byte) Digest {
	return HashConcat(merkleLeafPrefix, leaf)
}

// MerkleRootOfLeaves returns the root of the tree whose leaf-level
// digests (see MerkleLeaf) are given, or ZeroDigest for none. It folds
// the levels in place, so the slice's contents are clobbered; callers
// that hash many small trees reuse one scratch slice across them.
func MerkleRootOfLeaves(level []Digest) Digest {
	if len(level) == 0 {
		return ZeroDigest
	}
	for len(level) > 1 {
		level = AppendMerkleLevel(level[:0], level)
	}
	return level[0]
}

// MerkleRootOf is a convenience wrapper returning just the root digest of
// the given leaves, or ZeroDigest when leaves is empty.
func MerkleRootOf(leaves [][]byte) Digest {
	level := make([]Digest, len(leaves))
	for i, leaf := range leaves {
		level[i] = MerkleLeaf(leaf)
	}
	return MerkleRootOfLeaves(level)
}

// MerkleNode returns the digest of the interior node above two children.
func MerkleNode(left, right Digest) Digest {
	return HashConcat(merkleNodePrefix, left[:], right[:])
}

// Root returns the Merkle root digest.
func (t *MerkleTree) Root() Digest {
	top := t.levels[len(t.levels)-1]
	return top[0]
}

// Len returns the number of leaves.
func (t *MerkleTree) Len() int { return len(t.levels[0]) }

// MerkleProof is an inclusion proof for a single leaf. Path holds the
// sibling digests from the leaf level upward; Index encodes the leaf
// position, whose bits determine on which side each sibling lies.
type MerkleProof struct {
	Index int      `json:"index"`
	Path  []Digest `json:"path"`
}

// Prove returns the inclusion proof for the leaf at index i.
func (t *MerkleTree) Prove(i int) (MerkleProof, error) {
	if i < 0 || i >= t.Len() {
		return MerkleProof{}, fmt.Errorf("crypto: merkle leaf index %d out of range [0,%d)", i, t.Len())
	}
	proof := MerkleProof{Index: i}
	idx := i
	for _, level := range t.levels[:len(t.levels)-1] {
		sibling := idx ^ 1
		if sibling < len(level) {
			proof.Path = append(proof.Path, level[sibling])
		} else {
			// Odd node promoted: no sibling at this level, mark with the
			// zero digest which VerifyMerkleProof treats as "promote".
			proof.Path = append(proof.Path, ZeroDigest)
		}
		idx /= 2
	}
	return proof, nil
}

// VerifyMerkleProof checks that leaf is included under root according to
// the proof. The zero digest in the path marks a promoted (sibling-less)
// position.
func VerifyMerkleProof(root Digest, leaf []byte, proof MerkleProof) bool {
	if proof.Index < 0 {
		return false
	}
	cur := HashConcat(merkleLeafPrefix, leaf)
	idx := proof.Index
	for _, sib := range proof.Path {
		switch {
		case sib.IsZero():
			// promoted node: unchanged
		case idx%2 == 0:
			cur = MerkleNode(cur, sib)
		default:
			cur = MerkleNode(sib, cur)
		}
		idx /= 2
	}
	return cur == root
}
