package contract

import (
	"bytes"
	"testing"
)

// FuzzDecoder checks that the ABI decoder never panics on arbitrary
// input, whatever sequence of reads a contract performs, and that it
// keeps its first error: once a read fails, Err never changes, every
// later read returns the zero value and consumes nothing, and Done
// returns that error. The read plan is taken from the input itself.
func FuzzDecoder(f *testing.F) {
	f.Add(NewEncoder().Uint64(1).String("x").Blob([]byte{1}).Bool(true).Bytes())
	f.Add([]byte{})
	f.Add([]byte{0x03, 0xff, 0xff, 0xff, 0xff}) // string with absurd length
	f.Add([]byte{0x05, 1, 2})                   // truncated address
	// Length prefixes that wrap negative on a 32-bit int.
	for _, tag := range []byte{tagString, tagBytes} {
		for _, n := range []uint32{1<<31 - 1, 1 << 31, 1<<32 - 1} {
			f.Add([]byte{tag, byte(n >> 24), byte(n >> 16), byte(n >> 8), byte(n), 'x'})
		}
	}
	reads := []func(d *Decoder) bool{ // each reports whether it read a zero value
		func(d *Decoder) bool { return d.Uint64() == 0 },
		func(d *Decoder) bool { return d.Int64() == 0 },
		func(d *Decoder) bool { return !d.Bool() },
		func(d *Decoder) bool { return d.String() == "" },
		func(d *Decoder) bool { return d.Blob() == nil },
		func(d *Decoder) bool { return d.Address().IsZero() },
		func(d *Decoder) bool { return d.Digest().IsZero() },
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewDecoder(data)
		var first error
		for i := 0; i < 16; i++ {
			kind := i
			if len(data) > 0 {
				kind = int(data[i%len(data)])
			}
			before := d.Remaining()
			zero := reads[kind%len(reads)](d)
			if first != nil {
				if d.Err() != first {
					t.Fatalf("read %d: error changed from %v to %v", i, first, d.Err())
				}
				if !zero || d.Remaining() != before {
					t.Fatalf("read %d after failure: zero %v, consumed %d bytes", i, zero, before-d.Remaining())
				}
			}
			first = d.Err()
		}
		if first != nil && d.Done() != first {
			t.Fatalf("Done = %v, want %v", d.Done(), first)
		}
	})
}

// FuzzEncoderRoundTrip drives the ABI through encode→decode with
// fuzz-chosen values and checks every field survives byte-for-byte —
// the round-trip property every contract argument and every stored
// spec relies on.
func FuzzEncoderRoundTrip(f *testing.F) {
	f.Add(uint64(0), int64(-1), true, "hello", []byte{1, 2, 3})
	f.Add(uint64(1)<<63, int64(42), false, "", []byte{})
	f.Add(^uint64(0), int64(-1)<<62, true, "日本語", []byte{0xff})
	f.Fuzz(func(t *testing.T, u uint64, i int64, b bool, s string, blob []byte) {
		enc := NewEncoder().Uint64(u).Int64(i).Bool(b).String(s).Blob(blob).Bytes()
		d := NewDecoder(enc)
		if gu := d.Uint64(); gu != u {
			t.Fatalf("uint64 round-trip: got %d err %v, want %d", gu, d.Err(), u)
		}
		if gi := d.Int64(); gi != i {
			t.Fatalf("int64 round-trip: got %d err %v, want %d", gi, d.Err(), i)
		}
		if gb := d.Bool(); gb != b {
			t.Fatalf("bool round-trip: got %v err %v, want %v", gb, d.Err(), b)
		}
		if gs := d.String(); gs != s {
			t.Fatalf("string round-trip: got %q err %v, want %q", gs, d.Err(), s)
		}
		if gblob := d.Blob(); !bytes.Equal(gblob, blob) {
			t.Fatalf("blob round-trip: got %x err %v, want %x", gblob, d.Err(), blob)
		}
		if err := d.Done(); err != nil {
			t.Fatalf("trailing bytes after full decode: %v", err)
		}
	})
}

// FuzzDeployData checks the deploy/call payload decoding path the
// runtime exercises on every transaction.
func FuzzDeployData(f *testing.F) {
	f.Add(DeployData("pds2/erc20", []byte{1, 2}))
	f.Add(CallData("transfer", []byte{3}))
	f.Add([]byte("garbage"))
	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewDecoder(data)
		_ = d.String()
		d.Blob()
	})
}
