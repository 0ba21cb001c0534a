// Package he implements the Paillier additively-homomorphic cryptosystem
// and encrypted linear-model evaluation on top of it.
//
// The paper (§III-B) surveys homomorphic encryption as a candidate for
// oblivious computation and concludes that it "introduce[s] large
// overheads in the computation … impractical for most applications,
// particularly when dealing with a massive amount of data as for the
// case of IoT". This package exists to reproduce that claim honestly:
// the ciphertext arithmetic is real (2048-bit modular exponentiation),
// so the measured HE-vs-plain overhead ratios in experiment E3 come from
// actual cryptography rather than a synthetic slowdown factor.
package he

import (
	"errors"
	"fmt"
	"math"
	"math/big"

	cryptorand "crypto/rand"

	"pds2/internal/crypto"
)

// PublicKey is the Paillier public key. With g = n+1 the scheme needs
// only n; n² is cached.
type PublicKey struct {
	N  *big.Int
	N2 *big.Int // n², cached
}

// PrivateKey holds the decryption trapdoor.
type PrivateKey struct {
	PublicKey
	lambda *big.Int // lcm(p-1, q-1)
	mu     *big.Int // lambda^{-1} mod n
}

// Ciphertext is a Paillier ciphertext. Values are immutable; homomorphic
// operations return fresh ciphertexts.
type Ciphertext struct {
	C *big.Int
}

// WireSize returns the serialized size in bytes.
func (c *Ciphertext) WireSize() int { return (c.C.BitLen() + 7) / 8 }

// GenerateKey creates a Paillier key pair with an n of roughly the given
// bit length, drawing primes deterministically from rng.
func GenerateKey(bits int, rng *crypto.DRBG) (*PrivateKey, error) {
	if bits < 64 {
		return nil, errors.New("he: modulus below 64 bits is meaningless")
	}
	// rand.Prime consumes the DRBG as its entropy source, so key
	// generation is reproducible from the seed.
	p, err := cryptorand.Prime(rng, bits/2)
	if err != nil {
		return nil, fmt.Errorf("he: prime generation: %w", err)
	}
	q, err := cryptorand.Prime(rng, bits/2)
	if err != nil {
		return nil, fmt.Errorf("he: prime generation: %w", err)
	}
	if p.Cmp(q) == 0 {
		return nil, errors.New("he: degenerate key (p == q)")
	}
	n := new(big.Int).Mul(p, q)
	pm1 := new(big.Int).Sub(p, big.NewInt(1))
	qm1 := new(big.Int).Sub(q, big.NewInt(1))
	gcd := new(big.Int).GCD(nil, nil, pm1, qm1)
	lambda := new(big.Int).Div(new(big.Int).Mul(pm1, qm1), gcd)
	mu := new(big.Int).ModInverse(lambda, n)
	if mu == nil {
		return nil, errors.New("he: lambda not invertible (bad primes)")
	}
	pub := PublicKey{N: n, N2: new(big.Int).Mul(n, n)}
	return &PrivateKey{PublicKey: pub, lambda: lambda, mu: mu}, nil
}

// Encrypt encrypts m ∈ [0, n). With g = n+1, g^m = 1 + m·n (mod n²),
// avoiding one modular exponentiation.
func (pk *PublicKey) Encrypt(m *big.Int, rng *crypto.DRBG) (*Ciphertext, error) {
	if m.Sign() < 0 || m.Cmp(pk.N) >= 0 {
		return nil, fmt.Errorf("he: plaintext out of range [0, n)")
	}
	r, err := pk.randomUnit(rng)
	if err != nil {
		return nil, err
	}
	gm := new(big.Int).Mul(m, pk.N)
	gm.Add(gm, big.NewInt(1))
	gm.Mod(gm, pk.N2)
	rn := new(big.Int).Exp(r, pk.N, pk.N2)
	c := gm.Mul(gm, rn)
	c.Mod(c, pk.N2)
	return &Ciphertext{C: c}, nil
}

// randomUnit draws r ∈ [1, n) with gcd(r, n) = 1.
func (pk *PublicKey) randomUnit(rng *crypto.DRBG) (*big.Int, error) {
	one := big.NewInt(1)
	for i := 0; i < 128; i++ {
		r, err := cryptorand.Int(rng, pk.N)
		if err != nil {
			return nil, fmt.Errorf("he: random unit: %w", err)
		}
		if r.Sign() == 0 {
			continue
		}
		if new(big.Int).GCD(nil, nil, r, pk.N).Cmp(one) == 0 {
			return r, nil
		}
	}
	return nil, errors.New("he: could not find unit mod n")
}

// Decrypt recovers the plaintext in [0, n).
func (sk *PrivateKey) Decrypt(c *Ciphertext) (*big.Int, error) {
	if c == nil || c.C == nil || c.C.Sign() <= 0 || c.C.Cmp(sk.N2) >= 0 {
		return nil, errors.New("he: ciphertext out of range")
	}
	u := new(big.Int).Exp(c.C, sk.lambda, sk.N2)
	// L(u) = (u - 1) / n
	u.Sub(u, big.NewInt(1))
	u.Div(u, sk.N)
	u.Mul(u, sk.mu)
	u.Mod(u, sk.N)
	return u, nil
}

// Add returns the encryption of m1 + m2 (mod n).
func (pk *PublicKey) Add(c1, c2 *Ciphertext) *Ciphertext {
	c := new(big.Int).Mul(c1.C, c2.C)
	c.Mod(c, pk.N2)
	return &Ciphertext{C: c}
}

// MulPlain returns the encryption of m · k (mod n) for plaintext k.
func (pk *PublicKey) MulPlain(c *Ciphertext, k *big.Int) *Ciphertext {
	out := new(big.Int).Exp(c.C, new(big.Int).Mod(k, pk.N), pk.N2)
	return &Ciphertext{C: out}
}

// Fixed-point encoding of floats into the plaintext space. Negative
// values map to the upper half of [0, n), mirroring two's complement.

// DefaultScale is the fixed-point scale: 2^24 keeps ML values exact to
// ~6e-8 while leaving ample headroom in a 1024-bit plaintext space.
const DefaultScale = 1 << 24

// EncodeFloat maps f to the plaintext space of pk at the given scale.
func (pk *PublicKey) EncodeFloat(f float64, scale int64) *big.Int {
	v := big.NewInt(int64(math.Round(f * float64(scale))))
	return v.Mod(v, pk.N)
}

// DecodeFloat inverts EncodeFloat, interpreting the upper half of the
// plaintext space as negative.
func (pk *PublicKey) DecodeFloat(m *big.Int, scale int64) float64 {
	half := new(big.Int).Rsh(pk.N, 1)
	v := new(big.Int).Set(m)
	if v.Cmp(half) > 0 {
		v.Sub(v, pk.N)
	}
	f, _ := new(big.Float).SetInt(v).Float64()
	return f / float64(scale)
}

// EncryptFloat encrypts a float at the given scale.
func (pk *PublicKey) EncryptFloat(f float64, scale int64, rng *crypto.DRBG) (*Ciphertext, error) {
	return pk.Encrypt(pk.EncodeFloat(f, scale), rng)
}

// DecryptFloat decrypts a float encoded at the given scale. totalScale
// lets callers decode products, whose scale is the product of the factor
// scales.
func (sk *PrivateKey) DecryptFloat(c *Ciphertext, totalScale int64) (float64, error) {
	m, err := sk.Decrypt(c)
	if err != nil {
		return 0, err
	}
	return sk.DecodeFloat(m, totalScale), nil
}

// EncryptVector encrypts every component of x at the given scale.
func (pk *PublicKey) EncryptVector(x []float64, scale int64, rng *crypto.DRBG) ([]*Ciphertext, error) {
	out := make([]*Ciphertext, len(x))
	for i, v := range x {
		c, err := pk.EncryptFloat(v, scale, rng)
		if err != nil {
			return nil, err
		}
		out[i] = c
	}
	return out, nil
}

// DotEncrypted computes Enc(w · x + b·scale²-adjusted bias) from an
// encrypted feature vector and a *plaintext* model — the private-
// inference setting of MiniONN-style protocols: the provider encrypts
// its features, the executor holds the consumer's model in plaintext and
// evaluates the linear part homomorphically without ever seeing the
// features. The result is encoded at scale² (one scale from the features,
// one from the weights).
func (pk *PublicKey) DotEncrypted(encX []*Ciphertext, w []float64, bias float64, scale int64) (*Ciphertext, error) {
	if len(encX) != len(w) {
		return nil, fmt.Errorf("he: dot of %d ciphertexts with %d weights", len(encX), len(w))
	}
	// Start from bias at scale².
	acc := pk.EncodeFloat(bias, scale)
	acc.Mul(acc, big.NewInt(scale))
	acc.Mod(acc, pk.N)
	// Enc(bias·scale²) without randomness: (1 + acc·n); re-randomization
	// is the caller's choice via AddPlain with EncryptZero.
	accCt := &Ciphertext{C: new(big.Int).Mod(new(big.Int).Add(big.NewInt(1), new(big.Int).Mul(acc, pk.N)), pk.N2)}
	for i, c := range encX {
		term := pk.MulPlain(c, pk.EncodeFloat(w[i], scale))
		accCt = pk.Add(accCt, term)
	}
	return accCt, nil
}
