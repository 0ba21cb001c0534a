package contract

import (
	"bytes"
	"testing"
)

// FuzzDecoder checks that the ABI decoder never panics on arbitrary
// input, whatever sequence of reads a contract performs.
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
	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewDecoder(data)
		for i := 0; i < 16 && d.Remaining() > 0; i++ {
			// Try every decode in turn from the current offset; at most
			// one can succeed, the rest must fail cleanly.
			before := d.Remaining()
			if _, err := d.Uint64(); err == nil {
				continue
			}
			if _, err := d.Int64(); err == nil {
				continue
			}
			if _, err := d.Bool(); err == nil {
				continue
			}
			if _, err := d.String(); err == nil {
				continue
			}
			if _, err := d.Blob(); err == nil {
				continue
			}
			if _, err := d.Address(); err == nil {
				continue
			}
			if _, err := d.Digest(); err == nil {
				continue
			}
			if d.Remaining() != before {
				t.Fatal("failed decode consumed input")
			}
			break
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
		gu, err := d.Uint64()
		if err != nil || gu != u {
			t.Fatalf("uint64 round-trip: got %d err %v, want %d", gu, err, u)
		}
		gi, err := d.Int64()
		if err != nil || gi != i {
			t.Fatalf("int64 round-trip: got %d err %v, want %d", gi, err, i)
		}
		gb, err := d.Bool()
		if err != nil || gb != b {
			t.Fatalf("bool round-trip: got %v err %v, want %v", gb, err, b)
		}
		gs, err := d.String()
		if err != nil || gs != s {
			t.Fatalf("string round-trip: got %q err %v, want %q", gs, err, s)
		}
		gblob, err := d.Blob()
		if err != nil || !bytes.Equal(gblob, blob) {
			t.Fatalf("blob round-trip: got %x err %v, want %x", gblob, err, blob)
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
		if _, err := d.String(); err != nil {
			return
		}
		_, _ = d.Blob()
	})
}
