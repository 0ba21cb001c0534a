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

// Decoder reads values back from an ABI-encoded buffer in order. A
// failed decode consumes no input: the offset is restored, so callers
// may probe for alternatives.
type Decoder struct {
	buf []byte
	off int
}

// NewDecoder wraps an encoded buffer for sequential decoding.
func NewDecoder(b []byte) *Decoder { return &Decoder{buf: b} }

// Remaining returns the number of unconsumed bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

// Done returns an error unless all input has been consumed; contracts
// call it after decoding to reject trailing garbage in call data.
func (d *Decoder) Done() error {
	if d.Remaining() != 0 {
		return fmt.Errorf("contract: %d trailing bytes in ABI data", d.Remaining())
	}
	return nil
}

func (d *Decoder) tag(want byte) error {
	if d.off >= len(d.buf) {
		return ErrABITruncated
	}
	got := d.buf[d.off]
	if got != want {
		return fmt.Errorf("%w: want tag %#x, got %#x at offset %d", ErrABIType, want, got, d.off)
	}
	d.off++
	return nil
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
func (d *Decoder) Bool() (bool, error) {
	start := d.off
	if err := d.tag(tagBool); err != nil {
		return false, err
	}
	b, err := d.take(1)
	if err != nil {
		d.off = start
		return false, err
	}
	return b[0] != 0, nil
}

// Uint64 decodes an unsigned integer.
func (d *Decoder) Uint64() (uint64, error) {
	start := d.off
	if err := d.tag(tagUint64); err != nil {
		return 0, err
	}
	b, err := d.take(8)
	if err != nil {
		d.off = start
		return 0, err
	}
	return binary.BigEndian.Uint64(b), nil
}

// Int64 decodes a signed integer.
func (d *Decoder) Int64() (int64, error) {
	start := d.off
	if err := d.tag(tagInt64); err != nil {
		return 0, err
	}
	b, err := d.take(8)
	if err != nil {
		d.off = start
		return 0, err
	}
	return int64(binary.BigEndian.Uint64(b)), nil
}

// String decodes a string.
func (d *Decoder) String() (string, error) {
	b, err := d.chunk(tagString)
	return string(b), err
}

// Blob decodes a byte slice (copied out of the buffer).
func (d *Decoder) Blob() ([]byte, error) {
	b, err := d.chunk(tagBytes)
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), b...), nil
}

// chunk decodes a tagged run of bytes behind a 32-bit length prefix.
func (d *Decoder) chunk(tag byte) ([]byte, error) {
	start := d.off
	if err := d.tag(tag); err != nil {
		return nil, err
	}
	lb, err := d.take(4)
	if err == nil {
		var b []byte
		if b, err = d.take(uint64(binary.BigEndian.Uint32(lb))); err == nil {
			return b, nil
		}
	}
	d.off = start
	return nil, err
}

// Address decodes a ledger address.
func (d *Decoder) Address() (identity.Address, error) {
	var a identity.Address
	start := d.off
	if err := d.tag(tagAddr); err != nil {
		return a, err
	}
	b, err := d.take(identity.AddressSize)
	if err != nil {
		d.off = start
		return a, err
	}
	copy(a[:], b)
	return a, nil
}

// Digest decodes a content digest.
func (d *Decoder) Digest() (crypto.Digest, error) {
	var dg crypto.Digest
	start := d.off
	if err := d.tag(tagDigest); err != nil {
		return dg, err
	}
	b, err := d.take(crypto.HashSize)
	if err != nil {
		d.off = start
		return dg, err
	}
	copy(dg[:], b)
	return dg, nil
}
