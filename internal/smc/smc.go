// Package smc implements passively-secure multiparty computation over
// additive secret shares in GF(2^61-1): input sharing, opening,
// Beaver-triple multiplication and dot products, with explicit
// accounting of communication rounds and bytes.
//
// The paper (§III-B) observes that SMC "reduce[s] the overhead in
// comparison to homomorphic encryption" but that "delays introduced
// during communication make it difficult to employ SMC for applications
// that use many operations". This package reproduces both halves of that
// claim in experiment E4: field arithmetic is fast (no big integers),
// while every interactive operation pays a network round whose cost the
// engine reports against a configurable latency model — the structure of
// Falcon-style 3-party honest-majority protocols [14].
package smc

import (
	"errors"
	"fmt"
	"math"

	"pds2/internal/crypto"
	"pds2/internal/simnet"
)

// FixedScale is the default fixed-point scale for encoding real values
// into the field: 2^16 leaves room for one multiplication (scale 2^32)
// plus large sums inside the 61-bit field.
const FixedScale int64 = 1 << 16

// Encode maps a float to a field element at the given scale.
func Encode(f float64, scale int64) crypto.FieldElem {
	return crypto.FieldFromInt64(int64(math.Round(f * float64(scale))))
}

// Decode inverts Encode at the given (possibly accumulated) scale.
func Decode(e crypto.FieldElem, scale int64) float64 {
	return float64(e.Int64()) / float64(scale)
}

// Triple is one party's share of a Beaver multiplication triple
// (a, b, c) with c = a·b.
type Triple struct {
	A, B, C crypto.FieldElem
}

// SharedVector is a secret-shared vector: Shares[p][i] is party p's
// additive share of element i. Scale records the accumulated fixed-point
// scale (multiplications multiply scales; decoding divides by it).
type SharedVector struct {
	Shares [][]crypto.FieldElem
	Scale  int64
}

// Len returns the vector length.
func (sv *SharedVector) Len() int {
	if len(sv.Shares) == 0 {
		return 0
	}
	return len(sv.Shares[0])
}

// Engine orchestrates an n-party computation, tracking the communication
// cost of every interactive step. The engine is the "ideal-world"
// executor: shares are held in one process, but every value that a real
// deployment would move across the network is counted.
type Engine struct {
	NumParties int
	rng        *crypto.DRBG
	triples    [][]Triple // per party, consumed FIFO
	tripleIdx  int

	// Communication accounting.
	Rounds    int
	BytesSent int64
}

// NewEngine creates an engine for n >= 2 parties.
func NewEngine(n int, rng *crypto.DRBG) (*Engine, error) {
	if n < 2 {
		return nil, errors.New("smc: at least 2 parties required")
	}
	return &Engine{NumParties: n, rng: rng}, nil
}

// DealTriples pre-generates count Beaver triples, the offline phase run
// by a trusted dealer (or, in Falcon, by the third helper party). Offline
// cost is not charged to Rounds/BytesSent, matching how the literature
// reports online performance.
func (e *Engine) DealTriples(count int) {
	fresh := make([][]Triple, e.NumParties)
	for p := range fresh {
		fresh[p] = make([]Triple, count)
	}
	for k := 0; k < count; k++ {
		a := e.rng.FieldElem()
		b := e.rng.FieldElem()
		c := crypto.FieldMul(a, b)
		as := e.splitScalar(a)
		bs := e.splitScalar(b)
		cs := e.splitScalar(c)
		for p := 0; p < e.NumParties; p++ {
			fresh[p][k] = Triple{A: as[p], B: bs[p], C: cs[p]}
		}
	}
	if e.triples == nil {
		e.triples = fresh
		e.tripleIdx = 0
		return
	}
	for p := range e.triples {
		e.triples[p] = append(e.triples[p], fresh[p]...)
	}
}

// TriplesLeft returns the number of unconsumed triples.
func (e *Engine) TriplesLeft() int {
	if e.triples == nil {
		return 0
	}
	return len(e.triples[0]) - e.tripleIdx
}

// splitScalar produces n additive shares of v.
func (e *Engine) splitScalar(v crypto.FieldElem) []crypto.FieldElem {
	shares := make([]crypto.FieldElem, e.NumParties)
	rest := v
	for p := 0; p < e.NumParties-1; p++ {
		s := e.rng.FieldElem()
		shares[p] = s
		rest = crypto.FieldSub(rest, s)
	}
	shares[e.NumParties-1] = rest
	return shares
}

// Share secret-shares the input vector at the given scale. The input
// owner sends one share vector to each party: one round, n·len·8 bytes.
func (e *Engine) Share(x []float64, scale int64) *SharedVector {
	sv := &SharedVector{Scale: scale, Shares: make([][]crypto.FieldElem, e.NumParties)}
	for p := range sv.Shares {
		sv.Shares[p] = make([]crypto.FieldElem, len(x))
	}
	for i, f := range x {
		shares := e.splitScalar(Encode(f, scale))
		for p, s := range shares {
			sv.Shares[p][i] = s
		}
	}
	e.Rounds++
	e.BytesSent += int64(e.NumParties) * int64(len(x)) * 8
	return sv
}

// Open reconstructs the vector: every party broadcasts its shares
// (one round, n·(n-1)·len·8 bytes) and decodes locally.
func (e *Engine) Open(sv *SharedVector) []float64 {
	e.Rounds++
	e.BytesSent += int64(e.NumParties) * int64(e.NumParties-1) * int64(sv.Len()) * 8
	out := make([]float64, sv.Len())
	for i := range out {
		sum := crypto.FieldElem(0)
		for p := 0; p < e.NumParties; p++ {
			sum = crypto.FieldAdd(sum, sv.Shares[p][i])
		}
		out[i] = Decode(sum, sv.Scale)
	}
	return out
}

// Mul returns the element-wise product via Beaver triples: the parties
// open the masked differences d = x-a and f = y-b (one batched round),
// then combine locally. The result's scale is the product of the input
// scales; decode accordingly or rescale at open time.
func (e *Engine) Mul(x, y *SharedVector) (*SharedVector, error) {
	if x.Len() != y.Len() {
		return nil, fmt.Errorf("smc: mul of lengths %d and %d", x.Len(), y.Len())
	}
	n := x.Len()
	if e.TriplesLeft() < n {
		return nil, fmt.Errorf("smc: %d triples needed, %d available", n, e.TriplesLeft())
	}
	// One communication round: every party broadcasts its shares of d and
	// f for the whole batch.
	e.Rounds++
	e.BytesSent += int64(e.NumParties) * int64(e.NumParties-1) * int64(2*n) * 8

	out := &SharedVector{Scale: x.Scale * y.Scale, Shares: make([][]crypto.FieldElem, e.NumParties)}
	for p := range out.Shares {
		out.Shares[p] = make([]crypto.FieldElem, n)
	}
	for i := 0; i < n; i++ {
		k := e.tripleIdx + i
		// Reconstruct the masked openings d and f.
		var d, f crypto.FieldElem
		for p := 0; p < e.NumParties; p++ {
			tr := e.triples[p][k]
			d = crypto.FieldAdd(d, crypto.FieldSub(x.Shares[p][i], tr.A))
			f = crypto.FieldAdd(f, crypto.FieldSub(y.Shares[p][i], tr.B))
		}
		df := crypto.FieldMul(d, f)
		for p := 0; p < e.NumParties; p++ {
			tr := e.triples[p][k]
			// [xy] = [c] + d·[y] + f·[x] - d·f, with the public -d·f
			// constant applied by party 0 only.
			share := crypto.FieldAdd(tr.C, crypto.FieldMul(d, y.Shares[p][i]))
			share = crypto.FieldAdd(share, crypto.FieldMul(f, x.Shares[p][i]))
			if p == 0 {
				share = crypto.FieldSub(share, df)
			}
			out.Shares[p][i] = share
		}
	}
	e.tripleIdx += n
	return out, nil
}

// Dot computes the inner product of two shared vectors: one Beaver round
// for the products, then a local sum. Returns a length-1 shared vector.
func (e *Engine) Dot(x, y *SharedVector) (*SharedVector, error) {
	prod, err := e.Mul(x, y)
	if err != nil {
		return nil, err
	}
	out := &SharedVector{Scale: prod.Scale, Shares: make([][]crypto.FieldElem, e.NumParties)}
	for p := 0; p < e.NumParties; p++ {
		sum := crypto.FieldElem(0)
		for i := 0; i < prod.Len(); i++ {
			sum = crypto.FieldAdd(sum, prod.Shares[p][i])
		}
		out.Shares[p] = []crypto.FieldElem{sum}
	}
	return out, nil
}

// VirtualTime converts the accumulated communication cost into simulated
// wall-clock time under a latency/bandwidth model: every round pays one
// latency, and all bytes stream at the given bandwidth.
func (e *Engine) VirtualTime(latency simnet.Time, bandwidthBytesPerSec int64) simnet.Time {
	t := simnet.Time(e.Rounds) * latency
	if bandwidthBytesPerSec > 0 {
		t += simnet.Time(e.BytesSent * int64(simnet.Second) / bandwidthBytesPerSec)
	}
	return t
}
