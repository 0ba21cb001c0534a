package contract

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"pds2/internal/crypto"
	"pds2/internal/identity"
)

func TestABIRoundTrip(t *testing.T) {
	addr, _ := identity.AddressFromHex("0102030405060708090a0b0c0d0e0f1011121314")
	dg := crypto.HashString("digest")
	enc := NewEncoder().
		Bool(true).
		Uint64(42).
		Int64(-7).
		String("hello").
		Blob([]byte{1, 2, 3}).
		Address(addr).
		Digest(dg)

	dec := NewDecoder(enc.Bytes())
	if v := dec.Bool(); v != true {
		t.Fatalf("Bool: %v", v)
	}
	if v := dec.Uint64(); v != 42 {
		t.Fatalf("Uint64: %v", v)
	}
	if v := dec.Int64(); v != -7 {
		t.Fatalf("Int64: %v", v)
	}
	if v := dec.String(); v != "hello" {
		t.Fatalf("String: %v", v)
	}
	if v := dec.Blob(); !bytes.Equal(v, []byte{1, 2, 3}) {
		t.Fatalf("Blob: %v", v)
	}
	if v := dec.Address(); v != addr {
		t.Fatalf("Address: %v", v)
	}
	if v := dec.Digest(); v != dg {
		t.Fatalf("Digest: %v", v)
	}
	if err := dec.Done(); err != nil {
		t.Fatalf("Done: %v", err)
	}
}

// A failed read is kept: the uint64 that follows a mismatched string
// read is not decoded, and Done reports the mismatch, not the trailing
// bytes.
func TestABITypeMismatch(t *testing.T) {
	enc := NewEncoder().Uint64(1)
	dec := NewDecoder(enc.Bytes())
	if v := dec.String(); v != "" || !errors.Is(dec.Err(), ErrABIType) {
		t.Fatalf("want ErrABIType, got %q %v", v, dec.Err())
	}
	first := dec.Err()
	if v := dec.Uint64(); v != 0 || dec.Err() != first || dec.Remaining() != 9 {
		t.Fatalf("read after failure: %d, err %v, %d bytes left", v, dec.Err(), dec.Remaining())
	}
	if err := dec.Done(); err != first {
		t.Fatalf("Done = %v, want %v", err, first)
	}
}

func TestABITruncated(t *testing.T) {
	enc := NewEncoder().String("hello")
	b := enc.Bytes()
	dec := NewDecoder(b[:len(b)-2])
	if s := dec.String(); s != "" || !errors.Is(dec.Err(), ErrABITruncated) {
		t.Fatalf("want ErrABITruncated, got %q %v", s, dec.Err())
	}
	empty := NewDecoder(nil)
	if empty.Uint64(); !errors.Is(empty.Err(), ErrABITruncated) {
		t.Fatalf("want ErrABITruncated, got %v", empty.Err())
	}
}

func TestABIDoneRejectsTrailing(t *testing.T) {
	enc := NewEncoder().Uint64(1).Uint64(2)
	dec := NewDecoder(enc.Bytes())
	dec.Uint64()
	if err := dec.Done(); err == nil {
		t.Fatal("trailing data accepted")
	}
}

func TestABIBlobCopied(t *testing.T) {
	enc := NewEncoder().Blob([]byte{9, 9})
	buf := enc.Bytes()
	dec := NewDecoder(buf)
	blob := dec.Blob()
	blob[0] = 0
	dec2 := NewDecoder(buf)
	blob2 := dec2.Blob()
	if blob2[0] != 9 {
		t.Fatal("decoded blob aliases the input buffer")
	}
}

func TestABIPropertyQuick(t *testing.T) {
	f := func(u uint64, i int64, s string, b []byte, flag bool) bool {
		enc := NewEncoder().Uint64(u).Int64(i).String(s).Blob(b).Bool(flag)
		dec := NewDecoder(enc.Bytes())
		return dec.Uint64() == u && dec.Int64() == i && dec.String() == s &&
			bytes.Equal(dec.Blob(), b) && dec.Bool() == flag && dec.Done() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
