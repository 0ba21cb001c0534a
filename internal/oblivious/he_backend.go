package oblivious

import (
	"time"

	"pds2/internal/crypto"
	"pds2/internal/he"
	"pds2/internal/simnet"
)

// HE evaluates workloads under Paillier homomorphic encryption, the
// MiniONN-style private-inference setting: the data owner encrypts its
// features under its own key, the executor computes the linear part on
// ciphertexts (it holds the model in plaintext but never sees features),
// and the data owner decrypts the results.
type HE struct {
	key  *he.PrivateKey
	rng  *crypto.DRBG
	Link Link
}

// NewHE creates an HE backend with a fresh key of the given size.
func NewHE(keyBits int, seed uint64, link Link) (*HE, error) {
	rng := crypto.NewDRBGFromUint64(seed, "he-backend")
	key, err := he.GenerateKey(keyBits, rng)
	if err != nil {
		return nil, err
	}
	return &HE{key: key, rng: rng, Link: link}, nil
}

// Name implements Backend.
func (*HE) Name() string { return "he" }

// LinearPredict implements Backend: encrypt rows, homomorphic dot
// products, decrypt scores. Communication: ciphertexts up (one per
// feature per row) and one result ciphertext per row back — 2 rounds.
func (h *HE) LinearPredict(w []float64, bias float64, X [][]float64) ([]float64, Cost, error) {
	if err := validateLinear(w, X); err != nil {
		return nil, Cost{}, err
	}
	start := time.Now()
	var commBytes int64
	out := make([]float64, len(X))
	for i, row := range X {
		encRow, err := h.key.EncryptVector(row, he.DefaultScale, h.rng)
		if err != nil {
			return nil, Cost{}, err
		}
		for _, c := range encRow {
			commBytes += int64(c.WireSize())
		}
		ct, err := h.key.DotEncrypted(encRow, w, bias, he.DefaultScale)
		if err != nil {
			return nil, Cost{}, err
		}
		commBytes += int64(ct.WireSize())
		out[i], err = h.key.DecryptFloat(ct, he.DefaultScale*he.DefaultScale)
		if err != nil {
			return nil, Cost{}, err
		}
	}
	cpu := time.Since(start)
	cost := Cost{
		CPU:        cpu,
		CommBytes:  commBytes,
		CommRounds: 2,
		Virtual:    simnet.Time(cpu.Microseconds()) + h.Link.TransferTime(commBytes, 2),
	}
	return out, cost, nil
}
