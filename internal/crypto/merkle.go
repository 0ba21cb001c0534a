package crypto

// Domain-separation prefixes for Merkle hashing. Leaves and interior
// nodes are hashed under different prefixes so that a leaf can never be
// re-interpreted as an interior node.
var (
	merkleLeafPrefix = []byte{0x00}
	merkleNodePrefix = []byte{0x01}
)

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

// MerkleRootOfLeaves returns the root of the binary Merkle tree whose
// leaf-level digests (see MerkleLeaf) are given, or ZeroDigest for none.
// The tree is the unbalanced "Bitcoin-style" construction: an odd node
// at the end of a level is promoted unchanged to the level above, so no
// leaf is ever duplicated and second-preimage attacks via duplicated
// leaves are impossible. It folds the levels in place, so the slice's
// contents are clobbered; callers that hash many small trees reuse one
// scratch slice across them.
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
