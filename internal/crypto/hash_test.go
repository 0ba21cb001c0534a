package crypto

import (
	"bytes"
	"encoding/binary"
	"testing"
)

func TestHashBytesMatchesHashString(t *testing.T) {
	if HashBytes([]byte("pds2")) != HashString("pds2") {
		t.Fatal("HashBytes and HashString disagree")
	}
}

func TestHashConcatInjective(t *testing.T) {
	a := HashConcat([]byte("ab"), []byte("c"))
	b := HashConcat([]byte("a"), []byte("bc"))
	c := HashConcat([]byte("abc"))
	if a == b || a == c || b == c {
		t.Fatal("HashConcat framing is not injective")
	}
}

// TestHashConcatFramingAcrossSizes pins the short-input fast path and
// the streaming path to one framing: 8-byte big-endian length, then the
// part, for each part.
func TestHashConcatFramingAcrossSizes(t *testing.T) {
	for _, n := range []int{0, 1, 150, 171, 172, 173, 200, 1000} {
		a, b := bytes.Repeat([]byte{0xa5}, n), []byte("tail")
		var framed []byte
		for _, p := range [][]byte{a, b} {
			framed = binary.BigEndian.AppendUint64(framed, uint64(len(p)))
			framed = append(framed, p...)
		}
		if got, want := HashConcat(a, b), HashBytes(framed); got != want {
			t.Fatalf("n=%d: HashConcat = %s, framed hash %s", n, got.Short(), want.Short())
		}
	}
}

func TestHashConcatDeterministic(t *testing.T) {
	if HashConcat([]byte("x"), []byte("y")) != HashConcat([]byte("x"), []byte("y")) {
		t.Fatal("HashConcat not deterministic")
	}
}

func TestDigestHexRoundTrip(t *testing.T) {
	d := HashString("round trip")
	parsed, err := DigestFromHex(d.Hex())
	if err != nil {
		t.Fatalf("DigestFromHex: %v", err)
	}
	if parsed != d {
		t.Fatalf("round trip mismatch: %v != %v", parsed, d)
	}
}

func TestDigestFromHexRejectsBadInput(t *testing.T) {
	if _, err := DigestFromHex("zz"); err == nil {
		t.Fatal("expected error for non-hex input")
	}
	if _, err := DigestFromHex("abcd"); err == nil {
		t.Fatal("expected error for short input")
	}
}

func TestDigestIsZero(t *testing.T) {
	if !ZeroDigest.IsZero() {
		t.Fatal("ZeroDigest.IsZero() = false")
	}
	if HashString("x").IsZero() {
		t.Fatal("non-zero digest reported as zero")
	}
}

func TestDigestShort(t *testing.T) {
	d := HashString("short")
	if got := d.Short(); len(got) != 8 || got != d.Hex()[:8] {
		t.Fatalf("Short() = %q", got)
	}
}

func TestMACVerify(t *testing.T) {
	key := []byte("secret key")
	msg := []byte("message")
	mac := MAC(key, msg)
	if MAC(key, msg) != mac {
		t.Fatal("MAC not deterministic")
	}
	if MAC([]byte("wrong"), msg) == mac {
		t.Fatal("MAC equal under wrong key")
	}
	if MAC(key, []byte("other")) == mac {
		t.Fatal("MAC equal for wrong message")
	}
}

func TestDeriveKeyIndependence(t *testing.T) {
	master := []byte("master secret")
	k1 := DeriveKey(master, "ledger")
	k2 := DeriveKey(master, "storage")
	if bytes.Equal(k1, k2) {
		t.Fatal("distinct labels produced the same key")
	}
	if !bytes.Equal(k1, DeriveKey(master, "ledger")) {
		t.Fatal("DeriveKey not deterministic")
	}
}
