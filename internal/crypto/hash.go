// Package crypto provides the cryptographic primitives shared by every
// PDS² subsystem: hashing, Merkle trees, hash commitments, Shamir secret
// sharing over a 61-bit Mersenne prime field, and deterministic
// randomness (HMAC-DRBG).
//
// Everything in this package is built exclusively on the Go standard
// library and is fully deterministic given its inputs, which is what
// makes PDS² experiments exactly reproducible.
package crypto

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
)

// HashSize is the size in bytes of a Digest.
const HashSize = sha256.Size

// Digest is a SHA-256 hash value. It is the canonical content identifier
// throughout PDS²: datasets, workload code, blocks, transactions and
// enclave measurements are all addressed by their Digest.
type Digest [HashSize]byte

// ZeroDigest is the all-zero digest, used as a sentinel for "no value".
var ZeroDigest Digest

// HashBytes returns the SHA-256 digest of b.
func HashBytes(b []byte) Digest {
	return sha256.Sum256(b)
}

// HashString returns the SHA-256 digest of s.
func HashString(s string) Digest {
	return sha256.Sum256([]byte(s))
}

// HashConcat hashes the concatenation of the given byte slices. Each part
// is length-prefixed so that the encoding is injective: HashConcat(a, b)
// never equals HashConcat(ab) unless a and b already embed the framing.
func HashConcat(parts ...[]byte) Digest {
	n := 0
	for _, p := range parts {
		n += 8 + len(p)
	}
	// Short inputs — Merkle leaves and nodes, record keys — are framed
	// in a stack buffer and hashed in one call; that is several times
	// cheaper than streaming them through a hash.Hash.
	var stack [192]byte
	if n <= len(stack) {
		buf := stack[:0]
		for _, p := range parts {
			buf = binary.BigEndian.AppendUint64(buf, uint64(len(p)))
			buf = append(buf, p...)
		}
		return sha256.Sum256(buf)
	}
	h := sha256.New()
	var lenBuf [8]byte
	for _, p := range parts {
		binary.BigEndian.PutUint64(lenBuf[:], uint64(len(p)))
		h.Write(lenBuf[:])
		h.Write(p)
	}
	var d Digest
	h.Sum(d[:0])
	return d
}

// IsZero reports whether d is the zero digest.
func (d Digest) IsZero() bool { return d == ZeroDigest }

// Hex returns the full lowercase hexadecimal encoding of d.
func (d Digest) Hex() string { return hex.EncodeToString(d[:]) }

// Short returns the first 8 hex characters of d, for logs and summaries.
func (d Digest) Short() string { return d.Hex()[:8] }

// String implements fmt.Stringer.
func (d Digest) String() string { return d.Hex() }

// MarshalText implements encoding.TextMarshaler.
func (d Digest) MarshalText() ([]byte, error) {
	return []byte(d.Hex()), nil
}

// UnmarshalText implements encoding.TextUnmarshaler.
func (d *Digest) UnmarshalText(text []byte) error {
	b, err := hex.DecodeString(string(text))
	if err != nil {
		return fmt.Errorf("crypto: invalid digest hex: %w", err)
	}
	if len(b) != HashSize {
		return fmt.Errorf("crypto: digest must be %d bytes, got %d", HashSize, len(b))
	}
	copy(d[:], b)
	return nil
}

// DigestFromHex parses a 64-character hex string into a Digest.
func DigestFromHex(s string) (Digest, error) {
	var d Digest
	err := d.UnmarshalText([]byte(s))
	return d, err
}

// MAC computes HMAC-SHA256 of msg under key.
func MAC(key, msg []byte) Digest {
	m := hmac.New(sha256.New, key)
	m.Write(msg)
	var d Digest
	m.Sum(d[:0])
	return d
}

// DeriveKey derives a labelled subkey from a master secret using an
// HKDF-style expand step (HMAC-SHA256). Distinct labels yield
// cryptographically independent keys.
func DeriveKey(master []byte, label string) []byte {
	d := MAC(master, append([]byte("pds2/derive/"), label...))
	return d[:]
}
