package oblivious

import (
	"encoding/binary"
	"fmt"
	"math"

	"pds2/internal/tee"
)

// TEE runs workloads inside a simulated enclave (the backend PDS²
// selects). The data crosses the boundary encrypted-at-rest; the enclave
// decrypts, computes natively and the cost model charges the SGX
// overhead for the working-set size.
type TEE struct {
	platform *tee.Platform

	// UploadLink models the provider → executor transfer of the (sealed)
	// inputs; TEEs need the data shipped once, unlike SMC's per-operation
	// rounds.
	UploadLink Link
}

// NewTEE creates a TEE backend on the given platform.
func NewTEE(platform *tee.Platform, upload Link) *TEE {
	return &TEE{platform: platform, UploadLink: upload}
}

// Name implements Backend.
func (*TEE) Name() string { return "tee" }

// Enclave programs are self-describing: the code bytes identify the
// computation, so the measurement changes with any change to it.
var linearProgramCode = []byte("pds2/enclave/linear-predict/v1")

// LinearPredictMeasurement is the expected measurement of the linear-
// prediction enclave, which providers and the governance layer pin when
// verifying attestation quotes.
func LinearPredictMeasurement() tee.Measurement {
	return tee.Program{Code: linearProgramCode, Fn: runLinearPredict}.Measure()
}

// LinearPredict implements Backend.
func (t *TEE) LinearPredict(w []float64, bias float64, X [][]float64) ([]float64, Cost, error) {
	if err := validateLinear(w, X); err != nil {
		return nil, Cost{}, err
	}
	enclave, err := t.platform.Launch(tee.Program{Code: linearProgramCode, Fn: runLinearPredict})
	if err != nil {
		return nil, Cost{}, err
	}
	input := encodeLinearInput(w, bias, X)
	workingSet := int64(len(input))
	res, err := enclave.Call(input, workingSet)
	if err != nil {
		return nil, Cost{}, err
	}
	out, err := decodeFloats(res.Output)
	if err != nil {
		return nil, Cost{}, err
	}
	cost := Cost{
		CPU:        res.Elapsed,
		CommBytes:  int64(len(input)),
		CommRounds: 1,
		Virtual: enclave.LaunchCost() + res.Virtual +
			t.UploadLink.TransferTime(int64(len(input)), 1),
	}
	return out, cost, nil
}

// Enclave entry points. They speak the ecall wire format below; real SGX
// enclaves would additionally unseal the inputs, which the cost model
// folds into BaseOverhead.

func runLinearPredict(input []byte) ([]byte, error) {
	w, bias, X, err := decodeLinearInput(input)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(X))
	for i, row := range X {
		s := bias
		for j, v := range row {
			s += v * w[j]
		}
		out[i] = s
	}
	return encodeFloats(out), nil
}

// ecall wire format: flat big-endian encoding.

func encodeFloats(v []float64) []byte {
	buf := make([]byte, 8+8*len(v))
	binary.BigEndian.PutUint64(buf, uint64(len(v)))
	for i, f := range v {
		binary.BigEndian.PutUint64(buf[8+8*i:], math.Float64bits(f))
	}
	return buf
}

func decodeFloats(b []byte) ([]float64, error) {
	if len(b) < 8 {
		return nil, fmt.Errorf("oblivious: truncated float vector")
	}
	n := binary.BigEndian.Uint64(b)
	if uint64(len(b)) != 8+8*n {
		return nil, fmt.Errorf("oblivious: float vector length mismatch")
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.BigEndian.Uint64(b[8+8*i:]))
	}
	return out, nil
}

func encodeMatrix(rows [][]float64) []byte {
	size := 8
	for _, r := range rows {
		size += 8 + 8*len(r)
	}
	buf := make([]byte, 0, size)
	buf = binary.BigEndian.AppendUint64(buf, uint64(len(rows)))
	for _, r := range rows {
		buf = append(buf, encodeFloats(r)...)
	}
	return buf
}

func decodeMatrix(b []byte) ([][]float64, error) {
	if len(b) < 8 {
		return nil, fmt.Errorf("oblivious: truncated matrix")
	}
	n := binary.BigEndian.Uint64(b)
	b = b[8:]
	out := make([][]float64, 0, n)
	for i := uint64(0); i < n; i++ {
		if len(b) < 8 {
			return nil, fmt.Errorf("oblivious: truncated matrix row")
		}
		m := binary.BigEndian.Uint64(b)
		rowLen := int(8 + 8*m)
		if len(b) < rowLen {
			return nil, fmt.Errorf("oblivious: truncated matrix row")
		}
		row, err := decodeFloats(b[:rowLen])
		if err != nil {
			return nil, err
		}
		out = append(out, row)
		b = b[rowLen:]
	}
	return out, nil
}

func encodeLinearInput(w []float64, bias float64, X [][]float64) []byte {
	buf := encodeFloats(append(append([]float64{}, w...), bias))
	return append(buf, encodeMatrix(X)...)
}

func decodeLinearInput(b []byte) (w []float64, bias float64, X [][]float64, err error) {
	if len(b) < 8 {
		return nil, 0, nil, fmt.Errorf("oblivious: truncated linear input")
	}
	n := binary.BigEndian.Uint64(b)
	headLen := int(8 + 8*n)
	if len(b) < headLen {
		return nil, 0, nil, fmt.Errorf("oblivious: truncated linear input")
	}
	wb, err := decodeFloats(b[:headLen])
	if err != nil {
		return nil, 0, nil, err
	}
	if len(wb) == 0 {
		return nil, 0, nil, fmt.Errorf("oblivious: missing bias")
	}
	X, err = decodeMatrix(b[headLen:])
	if err != nil {
		return nil, 0, nil, err
	}
	return wb[:len(wb)-1], wb[len(wb)-1], X, nil
}
