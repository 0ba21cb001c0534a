package proptest

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"sort"
	"testing"
	"time"

	"pds2/internal/contract"
	"pds2/internal/crypto"
	"pds2/internal/identity"
	"pds2/internal/ledger"
	"pds2/internal/market"
	"pds2/internal/ml"
	"pds2/internal/policy"
	"pds2/internal/vm"
)

// decodeDigest pins what every ABI reader does with malformed input:
// the receipt of each contract call and deploy of the ladder history
// re-applied with its arguments truncated or extended, and the error
// text of every codec over truncated, extended and corrupted encodings.
// It was computed before decoding was restructured and must never be
// edited to make a change pass.
const decodeDigest = "67aa80db76926b3c306864b4222d03a55dfac0b46f2ccf5373776f2ff0ea33dc"

// decodeFullCutLimit is the argument size up to which every prefix is
// applied; longer arguments are cut only within one byte of a
// top-level ABI field boundary.
const decodeFullCutLimit = 512

// TestDecodeFailureGolden replays the ladder history and, on the
// pre-state of every contract call and deploy, applies the transaction
// again with its argument blob cut to each prefix, with one byte
// appended and with each field's tag corrupted, and with its call or
// deploy frame cut inside the header.
// It then runs each codec over every strict prefix, one byte appended
// and every single-byte corruption of a representative encoding. All
// outcomes fold into one digest.
func TestDecodeFailureGolden(t *testing.T) {
	start := time.Now()
	res := ladderHistory(t)
	ladderScript(t, res, sha256.New())
	h := sha256.New()
	runs := decodeReplay(t, res.Market, h)
	codecs := foldCodecs(t, h)
	got := hex.EncodeToString(h.Sum(nil))
	t.Logf("%d probe transactions over %d blocks, %d codec inputs in %v", runs, res.Market.Height(), codecs, time.Since(start))
	if got != decodeDigest {
		t.Fatalf("decode failure digest = %s, want %s", got, decodeDigest)
	}
}

// abiFieldEnds returns the end offset of each top-level ABI field of b,
// stopping at the first byte that does not start a well-formed field.
// It reads the wire format directly, so the oracle does not depend on
// the decoder it checks.
func abiFieldEnds(b []byte) []int {
	var ends []int
	for off := 0; off < len(b); {
		var n uint64
		switch b[off] {
		case 0x01:
			n = 1
		case 0x02, 0x07:
			n = 8
		case 0x05:
			n = identity.AddressSize
		case 0x06:
			n = crypto.HashSize
		case 0x03, 0x04:
			if len(b)-off < 5 {
				return ends
			}
			n = 4 + uint64(binary.BigEndian.Uint32(b[off+1:]))
		default:
			return ends
		}
		if n > uint64(len(b)-off-1) {
			return ends
		}
		off += 1 + int(n)
		ends = append(ends, off)
	}
	return ends
}

// splitFrame splits deploy or call data (a string, then a blob) into
// its name, its argument blob and the offset where the blob's payload
// starts.
func splitFrame(data []byte) (name string, args []byte, argsAt int, ok bool) {
	ends := abiFieldEnds(data)
	if len(ends) != 2 || data[0] != 0x03 || data[ends[0]] != 0x04 || ends[1] != len(data) {
		return "", nil, 0, false
	}
	return string(data[5:ends[0]]), data[ends[0]+5:], ends[0] + 5, true
}

// argCuts lists the prefix lengths an argument blob is cut to.
func argCuts(args []byte) []int {
	var cuts []int
	if len(args) <= decodeFullCutLimit {
		for k := 0; k < len(args); k++ {
			cuts = append(cuts, k)
		}
		return cuts
	}
	seen := map[int]bool{}
	for _, b := range append([]int{0}, abiFieldEnds(args)...) {
		for k := b - 1; k <= b+1; k++ {
			if k >= 0 && k < len(args) && !seen[k] {
				seen[k] = true
				cuts = append(cuts, k)
			}
		}
	}
	sort.Ints(cuts)
	return cuts
}

// frameProbes returns the malformed variants of one contract call or
// deploy: its arguments cut to each prefix, extended by one byte and
// with each top-level field's tag corrupted, then its frame cut at each
// length through the blob header and one byte into the payload.
func frameProbes(tx *ledger.Transaction, deploy bool) []*ledger.Transaction {
	name, args, argsAt, ok := splitFrame(tx.Data)
	if !ok {
		return nil
	}
	frame := contract.CallData
	if deploy {
		frame = contract.DeployData
	}
	var datas [][]byte
	for _, k := range argCuts(args) {
		datas = append(datas, frame(name, args[:k]))
	}
	datas = append(datas, frame(name, append(append([]byte(nil), args...), 0)))
	ends := abiFieldEnds(args)
	for i := range ends {
		start := 0
		if i > 0 {
			start = ends[i-1]
		}
		bad := append([]byte(nil), args...)
		bad[start] ^= 0xff
		datas = append(datas, frame(name, bad))
	}
	for k := 1; k <= argsAt && k < len(tx.Data); k++ {
		datas = append(datas, tx.Data[:k])
	}
	out := make([]*ledger.Transaction, len(datas))
	for i, d := range datas {
		probe := *tx
		probe.Data = d
		out[i] = &probe
	}
	return out
}

// decodeReplay re-executes the market's chain from genesis. Before each
// contract call or deploy is applied for real, every frame probe is
// applied on the same pre-state and reverted. The real application must
// reproduce the sealed receipt and every block its state root.
func decodeReplay(t *testing.T, m *market.Market, h hash.Hash) int {
	t.Helper()
	exp := m.Chain.ExportConfig()
	ch, err := ledger.NewChain(ledger.ChainConfig{Authorities: exp.Authorities, GenesisAlloc: exp.GenesisAlloc})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := market.NewRuntime()
	if err != nil {
		t.Fatal(err)
	}
	st := ch.State()
	contracts := map[identity.Address]bool{}
	runs := 0
	for height := uint64(1); height <= m.Chain.Height(); height++ {
		blk, err := m.Chain.BlockAt(height)
		if err != nil {
			t.Fatal(err)
		}
		for _, tx := range blk.Txs {
			want, ok := m.Chain.Receipt(tx.Hash())
			if !ok {
				t.Fatalf("height %d: receipt of %s missing", height, tx.Hash().Short())
			}
			deploy := tx.IsContractCreation()
			if deploy || contracts[tx.To] {
				for _, probe := range frameProbes(tx, deploy) {
					snap := st.Snapshot()
					rcpt, err := rt.Apply(st, probe, height)
					if err != nil {
						t.Fatalf("height %d: probe of %d bytes: %v", height, len(probe.Data), err)
					}
					foldReceipt(h, uint64(len(probe.Data)), rcpt)
					st.RevertTo(snap)
					runs++
				}
			}
			rcpt, err := rt.Apply(st, tx, height)
			if err != nil {
				t.Fatal(err)
			}
			if rcpt.Status != want.Status || rcpt.GasUsed != want.GasUsed || rcpt.Err != want.Err {
				t.Fatalf("height %d: replayed receipt %+v, sealed %+v", height, rcpt, want)
			}
			if deploy && rcpt.Status == ledger.StatusOK {
				var addr identity.Address
				copy(addr[:], rcpt.Return)
				contracts[addr] = true
			}
			foldReceipt(h, tx.GasLimit, rcpt)
		}
		if root := st.Root(); root != blk.Header.StateRoot {
			t.Fatalf("height %d: replayed root %s, sealed %s", height, root.Short(), blk.Header.StateRoot.Short())
		}
		st.Commit()
	}
	return runs
}

// codecCase is one representative encoding and the decoder under test,
// which returns a canonical rendering of what it decoded.
type codecCase struct {
	name   string
	enc    []byte
	decode func([]byte) ([]byte, error)
}

// foldCodecs runs every codec over each strict prefix, one byte
// appended and each single-byte XOR-0xff corruption of its encoding,
// folding the error text, or the rendering on success.
func foldCodecs(t *testing.T, h hash.Hash) int {
	t.Helper()
	n := 0
	cases, cutOnly := codecCases(t)
	for i, c := range append(cases, cutOnly...) {
		writeField(h, []byte(c.name))
		var inputs [][]byte
		for k := 0; k < len(c.enc); k++ {
			inputs = append(inputs, c.enc[:k])
		}
		inputs = append(inputs, append(append([]byte(nil), c.enc...), 0))
		for j := 0; j < len(c.enc) && i < len(cases); j++ {
			b := append([]byte(nil), c.enc...)
			b[j] ^= 0xff
			inputs = append(inputs, b)
		}
		for _, in := range inputs {
			out, err := c.decode(in)
			if err != nil {
				writeField(h, []byte("err: "+err.Error()))
			} else {
				writeField(h, out)
			}
			n++
		}
	}
	return n
}

// modelBytes renders a linear model in its wire layout: dim, weights,
// bias, age.
func modelBytes(m *ml.LogisticModel) []byte {
	b := binary.BigEndian.AppendUint64(nil, uint64(len(m.W)))
	for _, w := range m.W {
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(w))
	}
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(m.Bias))
	return binary.BigEndian.AppendUint64(b, m.Age())
}

// codecCases returns the codecs that take corruptions and those that
// are only cut: the enclave trusts its input's counts and sizes
// allocations by them.
func codecCases(t *testing.T) (cases, cutOnly []codecCase) {
	t.Helper()
	addr := func(s string) identity.Address {
		var a identity.Address
		d := crypto.HashString(s)
		copy(a[:], d[:])
		return a
	}
	params := market.TrainerParams{Dim: 2, Epochs: 2, Lambda: 1e-3, Aggregation: "median", DataPredicate: "samples > 1"}
	qa := make([]byte, 32)
	for i := range qa {
		qa[i] = byte(i)
	}
	spec := &market.Spec{
		Predicate: `category isa "sensor"`, MinProviders: 2, MinItems: 3,
		ExpiryHeight: 900, ExecutorFeeBps: 1_000, Measurement: crypto.HashString("measure"),
		QAPub: qa, RewardToken: addr("coin"), TokenBudget: 5_000, Params: params.Encode(),
		Class: "train", Purpose: "research", Registry: addr("registry"),
	}
	pol := &policy.Policy{
		AllowedClasses: []string{"train", "stats"}, MinAggregation: 3, ExpiryHeight: 900,
		Purposes: []string{"research"}, MaxInvocations: 5,
	}
	recs := []policy.DecisionRecord{
		{DataID: crypto.HashString("d1"), Subject: addr("s1"), Layer: policy.LayerMatch, Class: "train",
			Purpose: "research", Aggregation: 3, Height: 12, Invocations: 1, Code: policy.CodeOK},
		{DataID: crypto.HashString("d2"), Subject: addr("s2"), Layer: policy.LayerAdmission, Class: "stats",
			Aggregation: 1, Height: 13, Code: policy.CodeAggregationFloor, Clause: policy.ClauseAggregation},
	}
	scores := []market.Score{{Provider: addr("p1"), Score: 7}, {Provider: addr("p2"), Score: 0}, {Provider: addr("p3"), Score: 11}}
	ds := &ml.Dataset{X: [][]float64{{1, 0.5}, {-1, 2}, {0.25, -3}}, Y: []float64{1, 0, 1}}
	model := ml.NewLogisticModel(2, 1e-3)
	model.W[0], model.W[1], model.Bias = 0.5, -1.25, 0.125
	model.SetAge(4)
	result := contract.NewEncoder().Blob(modelBytes(model)).Blob(market.EncodeScores(scores)).Bytes()
	artifact, err := vm.BuildSource(statefulPolicy)
	if err != nil {
		t.Fatal(err)
	}
	trainer := market.NewTrainerProgram(params.Encode()).Program().Fn
	trainIn := contract.NewEncoder().String("train").Uint64(2).
		Address(addr("p1")).Blob(market.EncodeDataset(ds)).
		Address(addr("p2")).Blob(market.EncodeDataset(ds)).Bytes()
	trainOut, err := trainer(trainIn)
	if err != nil {
		t.Fatal(err)
	}
	aggIn := contract.NewEncoder().String("aggregate").Uint64(2).Blob(trainOut).Blob(trainOut).
		Uint64(2).Address(addr("p2")).Address(addr("p1")).Bytes()

	cases = []codecCase{
		{"spec", spec.Encode(), func(b []byte) ([]byte, error) {
			s, err := market.DecodeSpec(b)
			if err != nil {
				return nil, err
			}
			return s.Encode(), nil
		}},
		{"policy", pol.Encode(), func(b []byte) ([]byte, error) {
			p, err := policy.Decode(b)
			if err != nil {
				return nil, err
			}
			return p.Encode(), nil
		}},
		{"record", recs[1].Encode(), func(b []byte) ([]byte, error) {
			r, err := policy.DecodeDecisionRecord(b)
			if err != nil {
				return nil, err
			}
			return r.Encode(), nil
		}},
		{"records", policy.EncodeDecisionRecords(recs), func(b []byte) ([]byte, error) {
			rs, err := policy.DecodeDecisionRecords(b)
			if err != nil {
				return nil, err
			}
			return policy.EncodeDecisionRecords(rs), nil
		}},
		{"policy set", policy.EncodePolicySet(crypto.HashString("d1"), addr("owner"), pol.Encode()), func(b []byte) ([]byte, error) {
			id, owner, blob, err := policy.DecodePolicySet(b)
			if err != nil {
				return nil, err
			}
			return policy.EncodePolicySet(id, owner, blob), nil
		}},
		{"scores", market.EncodeScores(scores), func(b []byte) ([]byte, error) {
			s, err := market.DecodeScores(b)
			if err != nil {
				return nil, err
			}
			return market.EncodeScores(s), nil
		}},
		{"trainer params", params.Encode(), func(b []byte) ([]byte, error) {
			p, err := market.DecodeTrainerParams(b)
			if err != nil {
				return nil, err
			}
			return p.Encode(), nil
		}},
		{"dataset", market.EncodeDataset(ds), func(b []byte) ([]byte, error) {
			d, err := market.DecodeDataset(b)
			if err != nil {
				return nil, err
			}
			return market.EncodeDataset(d), nil
		}},
		{"result", result, func(b []byte) ([]byte, error) {
			m, s, err := market.DecodeResultModel(b, 1e-3)
			if err != nil {
				return nil, err
			}
			return append(modelBytes(m), market.EncodeScores(s)...), nil
		}},
		{"artifact", artifact, func(b []byte) ([]byte, error) {
			m, err := vm.Decode(b)
			if err != nil {
				return nil, err
			}
			return m.Encode(), nil
		}},
		// The same artifact re-sealed after each mutation, so the
		// checksum passes and the container decoder itself is reached.
		{"artifact body", artifact[:len(artifact)-crypto.HashSize], func(b []byte) ([]byte, error) {
			sum := crypto.HashBytes(b)
			m, err := vm.Decode(append(append([]byte(nil), b...), sum[:]...))
			if err != nil {
				return nil, err
			}
			return m.Encode(), nil
		}},
	}
	cutOnly = []codecCase{
		{"trainer train", trainIn, trainer},
		{"trainer aggregate", aggIn, trainer},
	}
	return cases, cutOnly
}
