package crypto

import (
	"fmt"
	"testing"
)

func makeLeaves(n int) [][]byte {
	leaves := make([][]byte, n)
	for i := range leaves {
		leaves[i] = []byte(fmt.Sprintf("leaf-%d", i))
	}
	return leaves
}

func TestMerkleRootOfEmptyIsZero(t *testing.T) {
	if !MerkleRootOf(nil).IsZero() {
		t.Fatal("MerkleRootOf(nil) should be the zero digest")
	}
}

// TestMerkleRootMatchesLevelByLevel checks the in-place fold against
// the tree built one fresh level at a time, for every shape up to 33
// leaves (odd nodes promoted at each level).
func TestMerkleRootMatchesLevelByLevel(t *testing.T) {
	for n := 1; n <= 33; n++ {
		leaves := makeLeaves(n)
		level := make([]Digest, n)
		for i, leaf := range leaves {
			level[i] = MerkleLeaf(leaf)
		}
		for len(level) > 1 {
			var up []Digest
			for i := 0; i < len(level); i += 2 {
				if i+1 < len(level) {
					up = append(up, MerkleNode(level[i], level[i+1]))
				} else {
					up = append(up, level[i])
				}
			}
			level = up
		}
		if got := MerkleRootOf(leaves); got != level[0] {
			t.Fatalf("n=%d: MerkleRootOf = %s, level-by-level root %s", n, got.Short(), level[0].Short())
		}
	}
}

func TestMerkleRootChangesWithAnyLeaf(t *testing.T) {
	leaves := makeLeaves(7)
	orig := MerkleRootOf(leaves)
	for i := range leaves {
		mutated := makeLeaves(7)
		mutated[i] = []byte("tampered")
		if MerkleRootOf(mutated) == orig {
			t.Fatalf("root unchanged after mutating leaf %d", i)
		}
	}
}

func TestMerkleLeafVsNodeDomainSeparation(t *testing.T) {
	// The classic second-preimage attack: a two-leaf tree whose leaves are
	// the concatenation of an inner node's children must not share the
	// root of the four-leaf tree. Domain separation prevents it.
	four := makeLeaves(4)
	l01 := HashConcat(merkleLeafPrefix, four[0])
	l23 := HashConcat(merkleLeafPrefix, four[1])
	inner := MerkleNode(l01, l23)
	if MerkleRootOf([][]byte{inner[:], inner[:]}) == MerkleRootOf(four) {
		t.Fatal("second-preimage via node/leaf confusion succeeded")
	}
}
