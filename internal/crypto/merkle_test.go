package crypto

import (
	"fmt"
	"testing"
	"testing/quick"
)

func makeLeaves(n int) [][]byte {
	leaves := make([][]byte, n)
	for i := range leaves {
		leaves[i] = []byte(fmt.Sprintf("leaf-%d", i))
	}
	return leaves
}

func TestMerkleEmptyRejected(t *testing.T) {
	if _, err := NewMerkleTree(nil); err == nil {
		t.Fatal("expected error for empty leaf list")
	}
}

func TestMerkleRootOfEmptyIsZero(t *testing.T) {
	if !MerkleRootOf(nil).IsZero() {
		t.Fatal("MerkleRootOf(nil) should be the zero digest")
	}
}

func TestMerkleSingleLeaf(t *testing.T) {
	leaves := makeLeaves(1)
	tree, err := NewMerkleTree(leaves)
	if err != nil {
		t.Fatal(err)
	}
	proof, err := tree.Prove(0)
	if err != nil {
		t.Fatal(err)
	}
	if !VerifyMerkleProof(tree.Root(), leaves[0], proof) {
		t.Fatal("single-leaf proof rejected")
	}
}

func TestMerkleProofsAllSizes(t *testing.T) {
	for n := 1; n <= 33; n++ {
		leaves := makeLeaves(n)
		tree, err := NewMerkleTree(leaves)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		// The in-place fold and the level-keeping tree are one definition.
		if got := MerkleRootOf(leaves); got != tree.Root() {
			t.Fatalf("n=%d: MerkleRootOf = %s, tree root %s", n, got.Short(), tree.Root().Short())
		}
		for i := 0; i < n; i++ {
			proof, err := tree.Prove(i)
			if err != nil {
				t.Fatalf("n=%d i=%d: %v", n, i, err)
			}
			if !VerifyMerkleProof(tree.Root(), leaves[i], proof) {
				t.Fatalf("n=%d: valid proof for leaf %d rejected", n, i)
			}
			// A proof must not verify for a different leaf payload.
			if VerifyMerkleProof(tree.Root(), []byte("forged"), proof) {
				t.Fatalf("n=%d: forged leaf accepted at index %d", n, i)
			}
		}
	}
}

func TestMerkleProofWrongIndexFails(t *testing.T) {
	leaves := makeLeaves(8)
	tree, _ := NewMerkleTree(leaves)
	proof, _ := tree.Prove(3)
	proof.Index = 4
	if VerifyMerkleProof(tree.Root(), leaves[3], proof) {
		t.Fatal("proof accepted under wrong index")
	}
}

func TestMerkleProveOutOfRange(t *testing.T) {
	tree, _ := NewMerkleTree(makeLeaves(4))
	if _, err := tree.Prove(-1); err == nil {
		t.Fatal("negative index accepted")
	}
	if _, err := tree.Prove(4); err == nil {
		t.Fatal("out-of-range index accepted")
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
	t4, _ := NewMerkleTree(four)
	l01 := HashConcat(merkleLeafPrefix, four[0])
	l23 := HashConcat(merkleLeafPrefix, four[1])
	inner := MerkleNode(l01, l23)
	t2, _ := NewMerkleTree([][]byte{inner[:], inner[:]})
	if t2.Root() == t4.Root() {
		t.Fatal("second-preimage via node/leaf confusion succeeded")
	}
}

func TestMerkleRootPropertyQuick(t *testing.T) {
	// Property: for random leaf sets, every proof verifies and the root is
	// stable across rebuilds.
	f := func(raw [][]byte) bool {
		if len(raw) == 0 || len(raw) > 64 {
			return true
		}
		tree, err := NewMerkleTree(raw)
		if err != nil {
			return false
		}
		tree2, _ := NewMerkleTree(raw)
		if tree.Root() != tree2.Root() {
			return false
		}
		for i := range raw {
			proof, err := tree.Prove(i)
			if err != nil || !VerifyMerkleProof(tree.Root(), raw[i], proof) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
