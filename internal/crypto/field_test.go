package crypto

import (
	"testing"
	"testing/quick"
)

func TestFieldAddSubInverse(t *testing.T) {
	f := func(a, b uint64) bool {
		x, y := NewFieldElem(a), NewFieldElem(b)
		return FieldSub(FieldAdd(x, y), y) == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFieldMulCommutativeAssociative(t *testing.T) {
	f := func(a, b, c uint64) bool {
		x, y, z := NewFieldElem(a), NewFieldElem(b), NewFieldElem(c)
		if FieldMul(x, y) != FieldMul(y, x) {
			return false
		}
		return FieldMul(FieldMul(x, y), z) == FieldMul(x, FieldMul(y, z))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFieldDistributive(t *testing.T) {
	f := func(a, b, c uint64) bool {
		x, y, z := NewFieldElem(a), NewFieldElem(b), NewFieldElem(c)
		return FieldMul(x, FieldAdd(y, z)) == FieldAdd(FieldMul(x, y), FieldMul(x, z))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFieldMulAgainstBigIntSemantics(t *testing.T) {
	// Spot-check the Mersenne reduction against small cases computable by
	// hand and against the largest elements.
	cases := []struct{ a, b uint64 }{
		{0, 0}, {1, 1}, {2, 3},
		{FieldPrime - 1, FieldPrime - 1},
		{FieldPrime - 1, 2},
		{1 << 60, 1 << 60},
	}
	for _, c := range cases {
		got := FieldMul(FieldElem(c.a%FieldPrime), FieldElem(c.b%FieldPrime))
		// Compute reference via 128-bit decomposition without bits.Mul64:
		// use math/big-free double-and-add.
		want := mulRef(c.a%FieldPrime, c.b%FieldPrime)
		if uint64(got) != want {
			t.Fatalf("FieldMul(%d,%d) = %d, want %d", c.a, c.b, got, want)
		}
	}
}

// mulRef multiplies by repeated doubling, a slow but obviously correct
// reference implementation.
func mulRef(a, b uint64) uint64 {
	var acc uint64
	for b > 0 {
		if b&1 == 1 {
			acc = (acc + a) % FieldPrime
		}
		a = (a + a) % FieldPrime
		b >>= 1
	}
	return acc
}

func TestFieldInt64RoundTrip(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 42, -42, 1 << 40, -(1 << 40)} {
		if FieldFromInt64(v).Int64() != v {
			t.Fatalf("Int64 round trip failed for %d", v)
		}
	}
}

func BenchmarkFieldMul(b *testing.B) {
	x, y := FieldElem(123456789012345), FieldElem(987654321098765)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x = FieldMul(x, y)
	}
	_ = x
}
