package crypto

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"math"
)

// DRBG is a deterministic random bit generator based on HMAC-SHA256
// (HMAC_DRBG from NIST SP 800-90A, without reseeding). PDS² uses it
// everywhere randomness is needed so that every simulation and experiment
// is exactly reproducible from its seed, while remaining
// cryptographically unpredictable to an observer who lacks the seed.
//
// A DRBG is not safe for concurrent use; create one per goroutine or
// protect it externally.
type DRBG struct {
	key [sha256.Size]byte
	v   [sha256.Size]byte
	mac hash.Hash // HMAC-SHA256 keyed with key
}

// NewDRBG creates a generator seeded with the given seed material and a
// personalization label. Distinct labels yield independent streams from
// the same seed.
func NewDRBG(seed []byte, label string) *DRBG {
	d := &DRBG{}
	for i := range d.v {
		d.v[i] = 0x01
	}
	d.rekey()
	d.update(append(append([]byte{}, seed...), label...))
	return d
}

// NewDRBGFromUint64 seeds a DRBG from an integer seed, the common case in
// simulations.
func NewDRBGFromUint64(seed uint64, label string) *DRBG {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], seed)
	return NewDRBG(b[:], label)
}

// rekey keys the HMAC with the current key; every HMAC under one key
// reuses it.
func (d *DRBG) rekey() { d.mac = hmac.New(sha256.New, d.key[:]) }

// next advances V to HMAC(K, V).
func (d *DRBG) next() {
	d.mac.Reset()
	d.mac.Write(d.v[:])
	d.mac.Sum(d.v[:0])
}

// update is HMAC_DRBG's update function: K = HMAC(K, V || 0x00 ||
// provided), V = HMAC(K, V), and with provided data a second round
// separated by 0x01.
func (d *DRBG) update(provided []byte) {
	for _, sep := range []byte{0x00, 0x01} {
		d.mac.Reset()
		d.mac.Write(d.v[:])
		d.mac.Write([]byte{sep})
		d.mac.Write(provided)
		d.mac.Sum(d.key[:0])
		d.rekey()
		d.next()
		if len(provided) == 0 {
			return
		}
	}
}

// Read fills p with pseudo-random bytes. It never fails; the error is
// always nil and exists to satisfy io.Reader.
func (d *DRBG) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		d.next()
		n += copy(p[n:], d.v[:])
	}
	d.update(nil)
	return len(p), nil
}

// Bytes returns n fresh pseudo-random bytes.
func (d *DRBG) Bytes(n int) []byte {
	b := make([]byte, n)
	d.Read(b)
	return b
}

// Uint64 returns a uniform pseudo-random 64-bit value.
func (d *DRBG) Uint64() uint64 {
	var b [8]byte
	d.Read(b[:])
	return binary.BigEndian.Uint64(b[:])
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (d *DRBG) Intn(n int) int {
	if n <= 0 {
		panic("crypto: DRBG.Intn requires n > 0")
	}
	// Rejection sampling to avoid modulo bias.
	max := uint64(n)
	limit := math.MaxUint64 - math.MaxUint64%max
	for {
		v := d.Uint64()
		if v < limit {
			return int(v % max)
		}
	}
}

// Int63 returns a uniform value in [0, 2^63).
func (d *DRBG) Int63() int64 {
	return int64(d.Uint64() >> 1)
}

// Float64 returns a uniform value in [0, 1).
func (d *DRBG) Float64() float64 {
	return float64(d.Uint64()>>11) / (1 << 53)
}

// NormFloat64 returns a standard-normal value using the Box–Muller
// transform (polar form would need rejection; the trigonometric form is
// branch-free and precise enough for simulation noise).
func (d *DRBG) NormFloat64() float64 {
	u1 := d.Float64()
	for u1 == 0 {
		u1 = d.Float64()
	}
	u2 := d.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// ExpFloat64 returns an exponentially distributed value with rate 1.
func (d *DRBG) ExpFloat64() float64 {
	u := d.Float64()
	for u == 0 {
		u = d.Float64()
	}
	return -math.Log(u)
}

// FieldElem returns a uniform element of GF(2^61-1).
func (d *DRBG) FieldElem() FieldElem {
	// Rejection-sample 61-bit values below the prime.
	for {
		v := d.Uint64() & FieldPrime // 61-bit mask equals the prime value
		if v < FieldPrime {
			return FieldElem(v)
		}
	}
}

// Perm returns a pseudo-random permutation of [0, n) via Fisher–Yates.
func (d *DRBG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := d.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle pseudo-randomly shuffles n elements using the provided swap
// function, via Fisher–Yates.
func (d *DRBG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := d.Intn(i + 1)
		swap(i, j)
	}
}

// Fork derives an independent child generator labelled by label. The
// parent's state advances, so successive forks with the same label are
// still independent.
func (d *DRBG) Fork(label string) *DRBG {
	return NewDRBG(d.Bytes(32), label)
}
