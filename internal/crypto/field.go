package crypto

import (
	"fmt"
	"math/bits"
)

// FieldPrime is the Mersenne prime 2^61 - 1. All Shamir secret sharing
// and SMC arithmetic in PDS² works in GF(FieldPrime): it is large enough
// to embed fixed-point encodings of ML values and small enough that
// products fit in 128 bits, keeping field multiplication branch-free and
// fast without math/big.
const FieldPrime uint64 = (1 << 61) - 1

// FieldElem is an element of GF(2^61-1), always kept in canonical reduced
// form [0, FieldPrime).
type FieldElem uint64

// NewFieldElem reduces v into the field.
func NewFieldElem(v uint64) FieldElem {
	return FieldElem(v % FieldPrime)
}

// FieldFromInt64 maps a signed integer into the field, representing
// negative values as p - |v|.
func FieldFromInt64(v int64) FieldElem {
	if v >= 0 {
		return NewFieldElem(uint64(v))
	}
	m := uint64(-v) % FieldPrime
	if m == 0 {
		return 0
	}
	return FieldElem(FieldPrime - m)
}

// Int64 maps the element back to a signed integer, interpreting values in
// the upper half of the field as negative. This is the inverse of
// FieldFromInt64 for |v| < p/2.
func (a FieldElem) Int64() int64 {
	if uint64(a) > FieldPrime/2 {
		return -int64(FieldPrime - uint64(a))
	}
	return int64(a)
}

// FieldAdd returns a+b mod p.
func FieldAdd(a, b FieldElem) FieldElem {
	s := uint64(a) + uint64(b) // < 2^62, no overflow
	if s >= FieldPrime {
		s -= FieldPrime
	}
	return FieldElem(s)
}

// FieldSub returns a-b mod p.
func FieldSub(a, b FieldElem) FieldElem {
	if a >= b {
		return a - b
	}
	return FieldElem(uint64(a) + FieldPrime - uint64(b))
}

// FieldMul returns a*b mod p using the Mersenne-prime folding reduction:
// for p = 2^61-1, (hi*2^64 + lo) ≡ hi*8 + lo (mod p) after splitting lo
// at bit 61.
func FieldMul(a, b FieldElem) FieldElem {
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	// value = hi*2^64 + lo = hi*2^3*2^61 + lo ≡ hi*8 + lo (mod 2^61-1)
	// Split lo into low 61 bits and high 3 bits.
	sum := (lo & FieldPrime) + (lo >> 61) + (hi << 3)
	// sum < 2^61 + 2^3 + 2^64/2^61*2^3 … fold once more to be safe.
	sum = (sum & FieldPrime) + (sum >> 61)
	if sum >= FieldPrime {
		sum -= FieldPrime
	}
	return FieldElem(sum)
}

// String implements fmt.Stringer.
func (a FieldElem) String() string { return fmt.Sprintf("%d", uint64(a)) }
