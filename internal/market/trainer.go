package market

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"pds2/internal/contract"
	"pds2/internal/crypto"
	"pds2/internal/identity"
	"pds2/internal/ml"
	"pds2/internal/semantic"
	"pds2/internal/tee"
)

// TrainerParams is the workload definition carried in Spec.Params for
// the built-in logistic-regression training workload: the enclave
// program interprets it; the contract treats it as opaque.
type TrainerParams struct {
	Dim    uint64
	Epochs uint64
	Lambda float64

	// Aggregation selects how executors' local models are combined:
	// "mean" (default) is the sample-weighted average; "median" is the
	// coordinate-wise median, which §II-F's pluggable-aggregation design
	// allows consumers to pick when they fear poisoned local models —
	// result-consistency checks cannot catch an executor feeding a
	// corrupt *input* into an otherwise honest aggregation, but the
	// median bounds its influence.
	Aggregation string

	// DataPredicate, when non-empty, is a semantic predicate the enclave
	// evaluates over statistics computed from the *actual data* of every
	// contributed dataset: `samples`, `dim`, `pos_fraction` (share of
	// positive labels) and `mean_norm` (mean feature-vector L2 norm).
	// Datasets that fail are excluded from training and earn zero
	// contribution — the §IV-C "leak-free verification of any
	// requirement" performed with privacy-preserving computation, which
	// catches providers whose self-declared metadata lied.
	DataPredicate string
}

// Encode serializes the params with the contract ABI. The predicate is
// part of the encoding and therefore of the enclave measurement: the
// consumer's pinned measurement commits to the verification rules too.
func (p TrainerParams) Encode() []byte {
	return contract.NewEncoder().
		Uint64(p.Dim).
		Uint64(p.Epochs).
		Uint64(math.Float64bits(p.Lambda)).
		String(p.Aggregation).
		String(p.DataPredicate).
		Bytes()
}

// DecodeTrainerParams inverts Encode.
func DecodeTrainerParams(b []byte) (TrainerParams, error) {
	d := contract.NewDecoder(b)
	p := TrainerParams{
		Dim: d.Uint64(), Epochs: d.Uint64(), Lambda: math.Float64frombits(d.Uint64()),
		Aggregation: d.String(),
	}
	if err := d.Err(); err != nil {
		return p, err
	}
	switch p.Aggregation {
	case "", "mean", "median":
	default:
		return p, fmt.Errorf("market: unknown aggregation %q", p.Aggregation)
	}
	p.DataPredicate = d.String()
	return p, d.Done()
}

// dataStats computes the in-enclave statistics DataPredicate sees.
func dataStats(ds *ml.Dataset) semantic.Metadata {
	pos := 0
	var normSum float64
	for i := range ds.X {
		if ds.Y[i] > 0 {
			pos++
		}
		normSum += ml.Norm2(ds.X[i])
	}
	posFrac, meanNorm := 0.0, 0.0
	if ds.Len() > 0 {
		posFrac = float64(pos) / float64(ds.Len())
		meanNorm = normSum / float64(ds.Len())
	}
	return semantic.Metadata{
		"samples":      semantic.Number(float64(ds.Len())),
		"dim":          semantic.Number(float64(ds.Dim())),
		"pos_fraction": semantic.Number(posFrac),
		"mean_norm":    semantic.Number(meanNorm),
	}
}

// trainerCodePrefix versions the enclave training program. The program's
// measurement covers the prefix *and* the workload params, so a consumer
// pinning a measurement pins the exact computation, hyperparameters
// included.
var trainerCodePrefix = []byte("pds2/enclave/trainer/v1|")

// TrainerProgram builds the enclave program for the given encoded
// params. Two entry modes share one measurement:
//
//	mode "train":     train a local model on this executor's data slice
//	mode "aggregate": merge all executors' local models and emit the
//	                  final result plus provider contribution scores
type TrainerProgram struct {
	params []byte
}

// NewTrainerProgram wraps encoded TrainerParams.
func NewTrainerProgram(params []byte) TrainerProgram {
	return TrainerProgram{params: append([]byte(nil), params...)}
}

// Program returns the tee.Program.
func (t TrainerProgram) Program() tee.Program {
	return tee.Program{
		Code: append(append([]byte(nil), trainerCodePrefix...), t.params...),
		Fn:   t.run,
	}
}

// Measurement returns the program measurement consumers pin in specs.
func (t TrainerProgram) Measurement() tee.Measurement {
	return t.Program().Measure()
}

// TrainerMeasurement is shorthand: the measurement for encoded params.
func TrainerMeasurement(params []byte) tee.Measurement {
	return NewTrainerProgram(params).Measurement()
}

// run dispatches on the mode tag.
func (t TrainerProgram) run(input []byte) ([]byte, error) {
	d := contract.NewDecoder(input)
	mode := d.String()
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("trainer: bad input: %w", err)
	}
	params, err := DecodeTrainerParams(t.params)
	if err != nil {
		return nil, fmt.Errorf("trainer: bad params: %w", err)
	}
	switch mode {
	case "train":
		return t.runTrain(params, d)
	case "aggregate":
		return t.runAggregate(params, d)
	default:
		return nil, fmt.Errorf("trainer: unknown mode %q", mode)
	}
}

// runTrain input: (n, then per item: provider address, dataset blob).
// Output: (model blob, samples, then per provider: address, count).
func (t TrainerProgram) runTrain(params TrainerParams, d *contract.Decoder) ([]byte, error) {
	var pred semantic.Expr
	if params.DataPredicate != "" {
		var err error
		if pred, err = semantic.Parse(params.DataPredicate); err != nil {
			return nil, fmt.Errorf("trainer: bad data predicate: %w", err)
		}
	}
	n := d.Uint64()
	if err := d.Err(); err != nil {
		return nil, err
	}
	type slice struct {
		provider identity.Address
		ds       *ml.Dataset
	}
	slices := make([]slice, 0, n)
	for i := uint64(0); i < n; i++ {
		provider, blob := d.Address(), d.Blob()
		if err := d.Err(); err != nil {
			return nil, err
		}
		ds, err := DecodeDataset(blob)
		if err != nil {
			return nil, fmt.Errorf("trainer: dataset %d: %w", i, err)
		}
		if ds.Dim() != int(params.Dim) && ds.Len() > 0 {
			return nil, fmt.Errorf("trainer: dataset %d has dim %d, workload needs %d", i, ds.Dim(), params.Dim)
		}
		if pred != nil && !pred.Eval(dataStats(ds)) {
			// In-enclave verification failed: the data does not satisfy
			// the workload's requirements, whatever its metadata claimed.
			// Exclude it; its provider earns nothing for it.
			continue
		}
		slices = append(slices, slice{provider: provider, ds: ds})
	}
	// Deterministic order regardless of delivery order.
	sort.Slice(slices, func(i, j int) bool {
		if slices[i].provider != slices[j].provider {
			return slices[i].provider.Hex() < slices[j].provider.Hex()
		}
		return slices[i].ds.Hash().Hex() < slices[j].ds.Hash().Hex()
	})

	model := ml.NewLogisticModel(int(params.Dim), params.Lambda)
	counts := map[identity.Address]uint64{}
	var total uint64
	parts := make([]*ml.Dataset, 0, len(slices))
	for _, s := range slices {
		counts[s.provider] += uint64(s.ds.Len())
		total += uint64(s.ds.Len())
		parts = append(parts, s.ds)
	}
	union := ml.Concat(parts...)
	ml.TrainEpochs(model, union, int(params.Epochs))

	// Emit per-provider sample counts in sorted provider order.
	provs := make([]identity.Address, 0, len(counts))
	for p := range counts {
		provs = append(provs, p)
	}
	sort.Slice(provs, func(i, j int) bool { return provs[i].Hex() < provs[j].Hex() })
	enc := contract.NewEncoder().
		Blob(encodeLinearModel(model)).
		Uint64(total).
		Uint64(uint64(len(provs)))
	for _, p := range provs {
		enc.Address(p).Uint64(counts[p])
	}
	return enc.Bytes(), nil
}

// localModel is one executor's decoded training output.
type localModel struct {
	model   *ml.LogisticModel
	samples uint64
	counts  map[identity.Address]uint64
}

// decodeLocalModel decodes one executor's train-phase output.
func decodeLocalModel(blob []byte, lambda float64) (localModel, error) {
	d := contract.NewDecoder(blob)
	model, err := readModel(d, lambda)
	if err != nil {
		return localModel{}, err
	}
	l := localModel{model: model, samples: d.Uint64()}
	np := d.Uint64()
	l.counts = make(map[identity.Address]uint64, np)
	for j := uint64(0); j < np && d.Err() == nil; j++ {
		addr, c := d.Address(), d.Uint64()
		l.counts[addr] = c
	}
	return l, d.Err()
}

// runAggregate input: (k, then per executor: train-output blob;
// then the provider payout order: count, addresses...).
// Output: (final model blob, scores blob per EncodeScores ordering).
func (t TrainerProgram) runAggregate(params TrainerParams, d *contract.Decoder) ([]byte, error) {
	k := d.Uint64()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if k == 0 {
		return nil, fmt.Errorf("trainer: aggregate of zero local results")
	}
	locals := make([]localModel, 0, k)
	for i := uint64(0); i < k; i++ {
		blob := d.Blob()
		if err := d.Err(); err != nil {
			return nil, err
		}
		l, err := decodeLocalModel(blob, params.Lambda)
		if err != nil {
			return nil, err
		}
		locals = append(locals, l)
	}
	// Provider payout order (the contract's registration order).
	np := d.Uint64()
	order := make([]identity.Address, 0, np)
	for i := uint64(0); i < np && d.Err() == nil; i++ {
		order = append(order, d.Address())
	}
	if err := d.Err(); err != nil {
		return nil, err
	}

	// Decentralized aggregation (§II-E: "tamper-proof, free from any
	// bias"). Every executor runs this same deterministic merge over the
	// same inputs, so all result hashes coincide. The mechanism is the
	// consumer's choice (§II-F): sample-weighted mean by default, or the
	// poisoning-robust coordinate-wise median.
	var totalSamples uint64
	for _, l := range locals {
		totalSamples += l.samples
	}
	if totalSamples == 0 {
		return nil, fmt.Errorf("trainer: no samples across executors")
	}
	var final *ml.LogisticModel
	if params.Aggregation == "median" {
		final = medianAggregate(locals, params)
	} else {
		final = ml.NewLogisticModel(int(params.Dim), params.Lambda)
		acc := 0.0
		for _, l := range locals {
			w := float64(l.samples) / float64(totalSamples)
			newAcc := acc + w
			if newAcc == 0 {
				continue
			}
			if err := final.MergeFrom(l.model, acc/newAcc, w/newAcc); err != nil {
				return nil, err
			}
			acc = newAcc
		}
	}

	merged := map[identity.Address]uint64{}
	for _, l := range locals {
		for p, c := range l.counts {
			merged[p] += c
		}
	}
	scores := make([]Score, 0, len(order))
	for _, p := range order {
		scores = append(scores, Score{Provider: p, Score: merged[p]})
	}
	return contract.NewEncoder().
		Blob(encodeLinearModel(final)).
		Blob(EncodeScores(scores)).
		Bytes(), nil
}

// medianAggregate combines local models by coordinate-wise median: a
// minority of arbitrarily corrupted local models moves each coordinate
// at most to a neighbouring honest value.
func medianAggregate(locals []localModel, params TrainerParams) *ml.LogisticModel {
	final := ml.NewLogisticModel(int(params.Dim), params.Lambda)
	column := make([]float64, len(locals))
	for j := range final.W {
		for i, l := range locals {
			column[i] = l.model.W[j]
		}
		final.W[j] = median(column)
	}
	for i, l := range locals {
		column[i] = l.model.Bias
	}
	final.Bias = median(column)
	var maxAge uint64
	for _, l := range locals {
		if l.model.Age() > maxAge {
			maxAge = l.model.Age()
		}
	}
	final.SetAge(maxAge)
	return final
}

// median returns the middle element (lower of the two for even counts),
// leaving v reordered.
func median(v []float64) float64 {
	sort.Float64s(v)
	return v[(len(v)-1)/2]
}

// Dataset wire format shared by providers (who encrypt it into their
// vaults) and the enclave (which decodes it after opening the grant).

// EncodeDataset serializes a dataset as big-endian float64s.
func EncodeDataset(d *ml.Dataset) []byte {
	size := 16
	for _, row := range d.X {
		size += 8 + 8*len(row) + 8
	}
	buf := make([]byte, 0, size)
	buf = binary.BigEndian.AppendUint64(buf, uint64(d.Len()))
	buf = binary.BigEndian.AppendUint64(buf, uint64(d.Dim()))
	for i, row := range d.X {
		for _, v := range row {
			buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(v))
		}
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(d.Y[i]))
	}
	return buf
}

// DecodeDataset inverts EncodeDataset.
func DecodeDataset(b []byte) (*ml.Dataset, error) {
	if len(b) < 16 {
		return nil, fmt.Errorf("market: truncated dataset")
	}
	n := binary.BigEndian.Uint64(b)
	dim := binary.BigEndian.Uint64(b[8:])
	want := 16 + int(n)*(int(dim)+1)*8
	if n > 1<<30 || dim > 1<<20 || len(b) != want {
		return nil, fmt.Errorf("market: dataset size mismatch: %d bytes for n=%d dim=%d", len(b), n, dim)
	}
	off := 16
	d := &ml.Dataset{X: make([][]float64, n), Y: make([]float64, n)}
	for i := uint64(0); i < n; i++ {
		row := make([]float64, dim)
		for j := range row {
			row[j] = math.Float64frombits(binary.BigEndian.Uint64(b[off:]))
			off += 8
		}
		d.X[i] = row
		d.Y[i] = math.Float64frombits(binary.BigEndian.Uint64(b[off:]))
		off += 8
	}
	return d, nil
}

func encodeLinearModel(m *ml.LogisticModel) []byte {
	buf := make([]byte, 0, 8*(len(m.W)+3))
	buf = binary.BigEndian.AppendUint64(buf, uint64(len(m.W)))
	for _, w := range m.W {
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(w))
	}
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(m.Bias))
	buf = binary.BigEndian.AppendUint64(buf, m.Age())
	return buf
}

func decodeLinearModel(b []byte, lambda float64) (*ml.LogisticModel, error) {
	if len(b) < 8 {
		return nil, fmt.Errorf("market: truncated model")
	}
	dim := binary.BigEndian.Uint64(b)
	if uint64(len(b)) != 8*(dim+3) {
		return nil, fmt.Errorf("market: model size mismatch")
	}
	m := ml.NewLogisticModel(int(dim), lambda)
	off := 8
	for i := range m.W {
		m.W[i] = math.Float64frombits(binary.BigEndian.Uint64(b[off:]))
		off += 8
	}
	m.Bias = math.Float64frombits(binary.BigEndian.Uint64(b[off:]))
	off += 8
	m.SetAge(binary.BigEndian.Uint64(b[off:]))
	return m, nil
}

// readModel reads a blob holding a linear model and decodes it.
func readModel(d *contract.Decoder, lambda float64) (*ml.LogisticModel, error) {
	blob := d.Blob()
	if err := d.Err(); err != nil {
		return nil, err
	}
	return decodeLinearModel(blob, lambda)
}

// DecodeResultModel decodes the final model from an accepted workload
// result payload (the consumer-side helper).
func DecodeResultModel(result []byte, lambda float64) (*ml.LogisticModel, []Score, error) {
	d := contract.NewDecoder(result)
	model, err := readModel(d, lambda)
	if err != nil {
		return nil, nil, err
	}
	scoresBlob := d.Blob()
	if err := d.Err(); err != nil {
		return nil, nil, err
	}
	scores, err := DecodeScores(scoresBlob)
	if err != nil {
		return nil, nil, err
	}
	return model, scores, nil
}

// ResultHash is the digest of a result payload, the value registered
// on-chain and bound by the result attestation quote.
func ResultHash(result []byte) crypto.Digest {
	return crypto.HashConcat([]byte("pds2/result"), result)
}
