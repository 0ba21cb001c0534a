package he

import (
	"math"
	"math/big"
	"testing"

	"pds2/internal/crypto"
)

// testKeyBits keeps unit tests fast; benchmark code uses 2048.
const testKeyBits = 512

func testKey(t *testing.T, seed uint64) (*PrivateKey, *crypto.DRBG) {
	t.Helper()
	rng := crypto.NewDRBGFromUint64(seed, "he-test")
	key, err := GenerateKey(testKeyBits, rng)
	if err != nil {
		t.Fatal(err)
	}
	return key, rng
}

func TestEncryptDecryptRoundTrip(t *testing.T) {
	key, rng := testKey(t, 1)
	for _, m := range []int64{0, 1, 42, 1 << 40} {
		c, err := key.Encrypt(big.NewInt(m), rng)
		if err != nil {
			t.Fatal(err)
		}
		got, err := key.Decrypt(c)
		if err != nil {
			t.Fatal(err)
		}
		if got.Int64() != m {
			t.Fatalf("decrypt = %v, want %d", got, m)
		}
	}
}

func TestEncryptionIsProbabilistic(t *testing.T) {
	key, rng := testKey(t, 2)
	c1, _ := key.Encrypt(big.NewInt(7), rng)
	c2, _ := key.Encrypt(big.NewInt(7), rng)
	if c1.C.Cmp(c2.C) == 0 {
		t.Fatal("two encryptions of the same plaintext are identical")
	}
}

func TestHomomorphicAdd(t *testing.T) {
	key, rng := testKey(t, 3)
	c1, _ := key.Encrypt(big.NewInt(100), rng)
	c2, _ := key.Encrypt(big.NewInt(23), rng)
	sum, err := key.Decrypt(key.Add(c1, c2))
	if err != nil {
		t.Fatal(err)
	}
	if sum.Int64() != 123 {
		t.Fatalf("homomorphic sum = %v", sum)
	}
}

func TestHomomorphicMulPlain(t *testing.T) {
	key, rng := testKey(t, 4)
	c, _ := key.Encrypt(big.NewInt(10), rng)
	got, _ := key.Decrypt(key.MulPlain(c, big.NewInt(7)))
	if got.Int64() != 70 {
		t.Fatalf("MulPlain = %v", got)
	}
}

func TestPlaintextRangeEnforced(t *testing.T) {
	key, rng := testKey(t, 5)
	if _, err := key.Encrypt(big.NewInt(-1), rng); err == nil {
		t.Fatal("negative plaintext accepted")
	}
	if _, err := key.Encrypt(new(big.Int).Set(key.N), rng); err == nil {
		t.Fatal("plaintext >= n accepted")
	}
}

func TestDecryptRejectsGarbage(t *testing.T) {
	key, _ := testKey(t, 6)
	if _, err := key.Decrypt(&Ciphertext{C: big.NewInt(0)}); err == nil {
		t.Fatal("zero ciphertext accepted")
	}
	if _, err := key.Decrypt(&Ciphertext{C: new(big.Int).Set(key.N2)}); err == nil {
		t.Fatal("out-of-range ciphertext accepted")
	}
}

func TestFloatEncodeDecode(t *testing.T) {
	key, _ := testKey(t, 7)
	for _, f := range []float64{0, 1.5, -2.75, 1e-3, -1e-3, 1234.5678} {
		m := key.EncodeFloat(f, DefaultScale)
		got := key.DecodeFloat(m, DefaultScale)
		if math.Abs(got-f) > 1e-6 {
			t.Fatalf("float round trip %v -> %v", f, got)
		}
	}
}

func TestEncryptFloatNegative(t *testing.T) {
	key, rng := testKey(t, 8)
	c, err := key.EncryptFloat(-3.25, DefaultScale, rng)
	if err != nil {
		t.Fatal(err)
	}
	got, err := key.DecryptFloat(c, DefaultScale)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got+3.25) > 1e-6 {
		t.Fatalf("decrypted %v", got)
	}
}

func TestDotEncryptedMatchesPlain(t *testing.T) {
	key, rng := testKey(t, 9)
	x := []float64{1.5, -2.0, 0.25, 3.0}
	w := []float64{0.5, 1.0, -4.0, 0.125}
	bias := 0.75

	encX, err := key.EncryptVector(x, DefaultScale, rng)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := key.DotEncrypted(encX, w, bias, DefaultScale)
	if err != nil {
		t.Fatal(err)
	}
	got, err := key.DecryptFloat(ct, DefaultScale*DefaultScale)
	if err != nil {
		t.Fatal(err)
	}
	want := bias
	for i := range x {
		want += x[i] * w[i]
	}
	if math.Abs(got-want) > 1e-5 {
		t.Fatalf("encrypted dot = %v, want %v", got, want)
	}
}

func TestDotEncryptedDimensionMismatch(t *testing.T) {
	key, rng := testKey(t, 10)
	encX, _ := key.EncryptVector([]float64{1, 2}, DefaultScale, rng)
	if _, err := key.DotEncrypted(encX, []float64{1}, 0, DefaultScale); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
}

func TestKeyGenDeterministic(t *testing.T) {
	k1, err := GenerateKey(256, crypto.NewDRBGFromUint64(42, "kg"))
	if err != nil {
		t.Fatal(err)
	}
	k2, err := GenerateKey(256, crypto.NewDRBGFromUint64(42, "kg"))
	if err != nil {
		t.Fatal(err)
	}
	if k1.N.Cmp(k2.N) != 0 {
		t.Fatal("same-seed keygen differs")
	}
	k3, _ := GenerateKey(256, crypto.NewDRBGFromUint64(43, "kg"))
	if k1.N.Cmp(k3.N) == 0 {
		t.Fatal("different seeds gave same key")
	}
}

func TestGenerateKeyRejectsTinyModulus(t *testing.T) {
	if _, err := GenerateKey(32, crypto.NewDRBGFromUint64(1, "kg")); err == nil {
		t.Fatal("tiny modulus accepted")
	}
}

func TestCiphertextWireSize(t *testing.T) {
	key, rng := testKey(t, 11)
	c, _ := key.Encrypt(big.NewInt(1), rng)
	// Ciphertexts live mod n², so ~2x key bits.
	if sz := c.WireSize(); sz < testKeyBits/8 || sz > 2*testKeyBits/8+2 {
		t.Fatalf("wire size = %d bytes", sz)
	}
}

func TestAddManyRandomizedProperty(t *testing.T) {
	key, rng := testKey(t, 12)
	// Sum of 20 random small values survives the homomorphism.
	var want int64
	acc, _ := key.Encrypt(big.NewInt(0), rng)
	for i := 0; i < 20; i++ {
		v := int64(rng.Intn(1000))
		want += v
		c, _ := key.Encrypt(big.NewInt(v), rng)
		acc = key.Add(acc, c)
	}
	got, _ := key.Decrypt(acc)
	if got.Int64() != want {
		t.Fatalf("sum = %v, want %d", got, want)
	}
}
