// Package contract implements the smart-contract runtime of the PDS²
// governance layer. Contracts are deterministic Go objects that keep all
// persistent data in the ledger's journaled contract storage; the runtime
// provides gas metering, revert semantics, cross-contract calls, event
// emission and a deploy/call transaction dispatcher that plugs into the
// ledger as its TxApplier.
//
// The paper (§III-A) calls for "Turing-complete smart contracts, which
// enable the complex validation behaviours described"; running contracts
// as native Go against journaled state reproduces exactly the programming
// model the governance layer needs — deterministic, metered, reversible
// state transitions — without re-implementing the EVM instruction set.
package contract

import (
	"encoding/binary"
	"errors"
	"fmt"

	"pds2/internal/crypto"
	"pds2/internal/identity"
)

// ABI type tags. Every encoded value is a one-byte tag followed by a
// fixed- or length-prefixed payload, so decoding is self-describing and
// type mismatches are detected rather than misread.
const (
	tagBool   byte = 0x01
	tagUint64 byte = 0x02
	tagString byte = 0x03
	tagBytes  byte = 0x04
	tagAddr   byte = 0x05
	tagDigest byte = 0x06
	tagInt64  byte = 0x07
)

// ABI encoding errors.
var (
	ErrABITruncated = errors.New("contract: truncated ABI data")
	ErrABIType      = errors.New("contract: ABI type mismatch")
)

// Encoder builds an ABI-encoded argument list.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an empty encoder.
func NewEncoder() *Encoder { return &Encoder{} }

// Bytes returns the encoded buffer.
func (e *Encoder) Bytes() []byte { return e.buf }

// Bool appends a boolean.
func (e *Encoder) Bool(v bool) *Encoder {
	b := byte(0)
	if v {
		b = 1
	}
	e.buf = append(e.buf, tagBool, b)
	return e
}

// Uint64 appends an unsigned integer.
func (e *Encoder) Uint64(v uint64) *Encoder {
	e.buf = append(e.buf, tagUint64)
	e.buf = binary.BigEndian.AppendUint64(e.buf, v)
	return e
}

// Int64 appends a signed integer.
func (e *Encoder) Int64(v int64) *Encoder {
	e.buf = append(e.buf, tagInt64)
	e.buf = binary.BigEndian.AppendUint64(e.buf, uint64(v))
	return e
}

// String appends a string.
func (e *Encoder) String(s string) *Encoder {
	e.buf = append(e.buf, tagString)
	e.buf = binary.BigEndian.AppendUint32(e.buf, uint32(len(s)))
	e.buf = append(e.buf, s...)
	return e
}

// Blob appends a byte slice.
func (e *Encoder) Blob(b []byte) *Encoder {
	e.buf = append(e.buf, tagBytes)
	e.buf = binary.BigEndian.AppendUint32(e.buf, uint32(len(b)))
	e.buf = append(e.buf, b...)
	return e
}

// Address appends a ledger address.
func (e *Encoder) Address(a identity.Address) *Encoder {
	e.buf = append(e.buf, tagAddr)
	e.buf = append(e.buf, a[:]...)
	return e
}

// Digest appends a content digest.
func (e *Encoder) Digest(d crypto.Digest) *Encoder {
	e.buf = append(e.buf, tagDigest)
	e.buf = append(e.buf, d[:]...)
	return e
}

// Decoder reads values back from an ABI-encoded buffer in order. It
// keeps its first error: a failed read records it, and every later
// read returns the zero value and consumes nothing, so callers read
// their fields in a row and check Err (or Done) once.
type Decoder struct {
	buf  []byte
	off  int
	err  error
	halt func(error) // set by Context.Args: a failed read stops the frame
}

// NewDecoder wraps an encoded buffer for sequential decoding.
func NewDecoder(b []byte) *Decoder { return &Decoder{buf: b} }

// Remaining returns the number of unconsumed bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

// Err returns the first failed read's error, or nil.
func (d *Decoder) Err() error { return d.err }

// Done returns the first failed read's error, or else an error unless
// all input has been consumed (which a frame's decoder halts on);
// contracts call it after decoding to reject trailing garbage in call
// data.
func (d *Decoder) Done() error {
	if d.err == nil && d.Remaining() != 0 {
		d.fail(fmt.Errorf("contract: %d trailing bytes in ABI data", d.Remaining()))
	}
	return d.err
}

// fail records err as the decoder's error; a frame's decoder halts.
func (d *Decoder) fail(err error) {
	d.err = err
	if d.halt != nil {
		d.halt(err)
	}
}

// value consumes one tagged value: a payload of size bytes, or, when
// size is negative, a 32-bit length prefix and that many bytes. After a
// failure it returns nil and consumes nothing.
func (d *Decoder) value(tag byte, size int) []byte {
	if d.err != nil {
		return nil
	}
	b, err := d.payload(tag, size)
	if err != nil {
		d.fail(err)
	}
	return b
}

func (d *Decoder) payload(tag byte, size int) ([]byte, error) {
	if d.off >= len(d.buf) {
		return nil, ErrABITruncated
	}
	if got := d.buf[d.off]; got != tag {
		return nil, fmt.Errorf("%w: want tag %#x, got %#x at offset %d", ErrABIType, tag, got, d.off)
	}
	d.off++
	n := uint64(size)
	if size < 0 {
		lb, err := d.take(4)
		if err != nil {
			return nil, err
		}
		n = uint64(binary.BigEndian.Uint32(lb))
	}
	return d.take(n)
}

// take consumes n bytes. n is unsigned and compared with the bytes
// remaining before any conversion, so a 32-bit length prefix cannot
// wrap negative on a 32-bit int.
func (d *Decoder) take(n uint64) ([]byte, error) {
	if n > uint64(len(d.buf)-d.off) {
		return nil, ErrABITruncated
	}
	b := d.buf[d.off : d.off+int(n)]
	d.off += int(n)
	return b, nil
}

// Bool decodes a boolean.
func (d *Decoder) Bool() bool {
	b := d.value(tagBool, 1)
	return len(b) == 1 && b[0] != 0
}

// Uint64 decodes an unsigned integer.
func (d *Decoder) Uint64() uint64 { return d.word(tagUint64) }

// Int64 decodes a signed integer.
func (d *Decoder) Int64() int64 { return int64(d.word(tagInt64)) }

func (d *Decoder) word(tag byte) uint64 {
	var b [8]byte
	copy(b[:], d.value(tag, 8))
	return binary.BigEndian.Uint64(b[:])
}

// String decodes a string.
func (d *Decoder) String() string { return string(d.value(tagString, -1)) }

// Blob decodes a byte slice (copied out of the buffer).
func (d *Decoder) Blob() []byte { return append([]byte(nil), d.value(tagBytes, -1)...) }

// Address decodes a ledger address.
func (d *Decoder) Address() identity.Address {
	var a identity.Address
	copy(a[:], d.value(tagAddr, identity.AddressSize))
	return a
}

// Digest decodes a content digest.
func (d *Decoder) Digest() crypto.Digest {
	var dg crypto.Digest
	copy(dg[:], d.value(tagDigest, crypto.HashSize))
	return dg
}
