package pds2

// The benchmark harness: one testing.B benchmark per experiment in
// DESIGN.md's index (E1–E14), regenerating the corresponding table at
// reduced ("quick") size, plus micro-benchmarks for the hot substrate
// paths. Run everything with:
//
//	go test -bench=. -benchmem
//
// Full-size tables are produced by cmd/pds2-experiments and recorded in
// EXPERIMENTS.md.

import (
	"encoding/binary"
	"fmt"
	"math/big"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"pds2/internal/chainstore"
	"pds2/internal/contract"
	"pds2/internal/core"
	"pds2/internal/crypto"
	"pds2/internal/experiments"
	"pds2/internal/he"
	"pds2/internal/identity"
	"pds2/internal/ledger"
	"pds2/internal/market"
	"pds2/internal/ml"
	"pds2/internal/reward"
	"pds2/internal/smc"
	"pds2/internal/telemetry"
)

// benchExperiment runs one experiment table per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		table := e.Run(true)
		if len(table.Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

func BenchmarkE1Lifecycle(b *testing.B)     { benchExperiment(b, "E1") }
func BenchmarkE2Governance(b *testing.B)    { benchExperiment(b, "E2") }
func BenchmarkE3HE(b *testing.B)            { benchExperiment(b, "E3") }
func BenchmarkE4SMC(b *testing.B)           { benchExperiment(b, "E4") }
func BenchmarkE5TEE(b *testing.B)           { benchExperiment(b, "E5") }
func BenchmarkE6GossipVsFed(b *testing.B)   { benchExperiment(b, "E6") }
func BenchmarkE7Hetero(b *testing.B)        { benchExperiment(b, "E7") }
func BenchmarkE8Shapley(b *testing.B)       { benchExperiment(b, "E8") }
func BenchmarkE9Pricing(b *testing.B)       { benchExperiment(b, "E9") }
func BenchmarkE10Authenticity(b *testing.B) { benchExperiment(b, "E10") }
func BenchmarkE11Discovery(b *testing.B)    { benchExperiment(b, "E11") }
func BenchmarkE12Leakage(b *testing.B)      { benchExperiment(b, "E12") }
func BenchmarkE13Configs(b *testing.B)      { benchExperiment(b, "E13") }
func BenchmarkE14Tamper(b *testing.B)       { benchExperiment(b, "E14") }

// --- Substrate micro-benchmarks ---

// BenchmarkScenarioEndToEnd measures one complete marketplace lifecycle.
func BenchmarkScenarioEndToEnd(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := core.Run(core.Scenario{Seed: uint64(i), Providers: 4, Executors: 2, SamplesEach: 50})
		if err != nil {
			b.Fatal(err)
		}
		if res.State != market.StateComplete {
			b.Fatalf("state %v", res.State)
		}
	}
}

// BenchmarkLedgerTransfersPerBlock measures raw chain throughput with
// 1000 plain transfers per block.
func BenchmarkLedgerTransfersPerBlock(b *testing.B) {
	authority := identity.New("auth", crypto.NewDRBGFromUint64(1, "bench"))
	users := make([]*identity.Identity, 100)
	alloc := map[identity.Address]uint64{}
	for i := range users {
		users[i] = identity.New("u", crypto.NewDRBGFromUint64(uint64(10+i), "bench"))
		alloc[users[i].Address()] = 1 << 40
	}
	chain, err := ledger.NewChain(ledger.ChainConfig{
		Authorities:  []identity.Address{authority.Address()},
		GenesisAlloc: alloc,
	})
	if err != nil {
		b.Fatal(err)
	}
	nonces := make([]uint64, len(users))
	const txPerBlock = 1000
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		txs := make([]*ledger.Transaction, txPerBlock)
		for j := range txs {
			u := j % len(users)
			txs[j] = ledger.SignTx(users[u], users[(u+1)%len(users)].Address(), 1, nonces[u], 50_000, nil)
			nonces[u]++
		}
		if _, err := chain.ProposeBlock(authority, uint64(i+1), txs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(txPerBlock), "tx/block")
}

// BenchmarkGenesisOpen measures what a node pays before it serves its
// first request at 100k funded accounts: chainstore.Open and market.Open
// on an empty directory, which compute the genesis state root and write
// genesis.json. The addresses are hashes, as real ones are.
func BenchmarkGenesisOpen(b *testing.B) {
	const accounts = 100_000
	alloc := make(map[identity.Address]uint64, accounts)
	for i := uint64(0); i < accounts; i++ {
		var a identity.Address
		d := crypto.HashBytes(binary.BigEndian.AppendUint64(nil, i))
		copy(a[:], d[:])
		alloc[a] = 1_000_000
	}
	cfg := market.Config{Seed: 1, GenesisAlloc: alloc}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := filepath.Join(b.TempDir(), "store")
		b.StartTimer()
		store, err := chainstore.Open(dir, nil)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := market.Open(cfg, store); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := store.Close(); err != nil {
			b.Fatal(err)
		}
		if err := os.RemoveAll(dir); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// importBenchTxPerBlock is the block size of the import benchmarks.
const importBenchTxPerBlock = 500

// importBenchBlocks seals n consecutive 500-transfer blocks on a producer
// chain and returns them with the config a replica needs to import them;
// workers selects the stateless-verification pool (1 = serial, 0 =
// GOMAXPROCS).
func importBenchBlocks(b *testing.B, workers, n int) (ledger.ChainConfig, []*ledger.Block) {
	b.Helper()
	authority := identity.New("auth", crypto.NewDRBGFromUint64(1, "bench"))
	users := make([]*identity.Identity, 100)
	alloc := map[identity.Address]uint64{}
	for i := range users {
		users[i] = identity.New("u", crypto.NewDRBGFromUint64(uint64(10+i), "bench"))
		alloc[users[i].Address()] = 1 << 40
	}
	cfg := ledger.ChainConfig{
		Authorities:      []identity.Address{authority.Address()},
		GenesisAlloc:     alloc,
		StatelessWorkers: workers,
	}
	producer, err := ledger.NewChain(cfg)
	if err != nil {
		b.Fatal(err)
	}
	nonces := make([]uint64, len(users))
	blocks := make([]*ledger.Block, n)
	for h := range blocks {
		txs := make([]*ledger.Transaction, importBenchTxPerBlock)
		for j := range txs {
			u := j % len(users)
			txs[j] = ledger.SignTx(users[u], users[(u+1)%len(users)].Address(), 1, nonces[u], 50_000, nil)
			nonces[u]++
		}
		if blocks[h], err = producer.ProposeBlock(authority, uint64(h+1), txs); err != nil {
			b.Fatal(err)
		}
	}
	return cfg, blocks
}

// benchImportBlock measures replica block-import throughput for one
// 500-transfer block. audit=true prepends a standalone VerifyBlock,
// reproducing the pre-optimization double-execution path; workers
// selects the stateless-verification pool (1 = serial, 0 = GOMAXPROCS).
func benchImportBlock(b *testing.B, workers int, audit bool) {
	b.Helper()
	cfg, blocks := importBenchBlocks(b, workers, 1)
	block := blocks[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		replica, err := ledger.NewChain(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if audit {
			if err := replica.VerifyBlock(block); err != nil {
				b.Fatal(err)
			}
		}
		if err := replica.ImportBlock(block); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(importBenchTxPerBlock)*float64(b.N)/b.Elapsed().Seconds(), "tx/s")
}

// BenchmarkImportBlock compares the block-import pipelines: the
// double-execution baseline (standalone verify, then import — what
// ImportBlock did before it executed blocks exactly once), the
// single-execution path with serial signature verification, and the
// full pipeline with the parallel stateless phase.
func BenchmarkImportBlock(b *testing.B) {
	b.Run("double-exec-baseline", func(b *testing.B) { benchImportBlock(b, 1, true) })
	b.Run("single-exec-serial", func(b *testing.B) { benchImportBlock(b, 1, false) })
	b.Run("single-exec-parallel", func(b *testing.B) { benchImportBlock(b, 0, false) })
}

// BenchmarkImportStream is BenchmarkImportBlock's sibling for catch-up:
// the same 500-transfer blocks, sixteen of them, absorbed by a fresh
// replica either one ImportBlock at a time (each block's signature checks
// finish before it executes and before the next block's begin) or through
// one ImportStream (block N+k is verified while block N executes).
func BenchmarkImportStream(b *testing.B) {
	const blocksPerOp = 16
	for _, mode := range []struct {
		name    string
		workers int
		stream  bool
	}{
		{"block-at-a-time-serial", 1, false},
		{"block-at-a-time-parallel", 0, false},
		{"stream-serial", 1, true},
		{"stream-parallel", 0, true},
	} {
		b.Run(mode.name, func(b *testing.B) {
			cfg, blocks := importBenchBlocks(b, mode.workers, blocksPerOp)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				replica, err := ledger.NewChain(cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if mode.stream {
					_, err = replica.ImportStream(ledger.BlocksOf(blocks...))
				} else {
					for _, blk := range blocks {
						if err = replica.ImportBlock(blk); err != nil {
							break
						}
					}
				}
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(importBenchTxPerBlock*blocksPerOp)*float64(b.N)/b.Elapsed().Seconds(), "tx/s")
		})
	}
}

// BenchmarkImportBlockHistory prices the metrics-history sampler: the
// serial single-exec import pipeline with telemetry enabled, with and
// without the 250ms history ring snapshotting the registry in the
// background. The tx/s delta is the history overhead; it must stay
// under 1% (snapshots take only the shard read-locks, never blocking
// the record path, and fire 4×/s regardless of import rate).
func BenchmarkImportBlockHistory(b *testing.B) {
	telemetry.Enable()
	defer telemetry.Disable()
	b.Run("history-off", func(b *testing.B) { benchImportBlock(b, 1, false) })
	b.Run("history-on-250ms", func(b *testing.B) {
		telemetry.EnableHistory(250*time.Millisecond, telemetry.DefaultHistoryCapacity)
		defer telemetry.DisableHistory()
		benchImportBlock(b, 1, false)
	})
}

// BenchmarkMempoolConcurrentAdmission measures admission throughput
// with many submitter goroutines hitting the pool at once — the API
// fast path, where ed25519 verification runs outside the pool mutex.
// Signing happens inline, so the figure is a full admission round trip.
func BenchmarkMempoolConcurrentAdmission(b *testing.B) {
	pool := ledger.NewMempool(1 << 30)
	var seq atomic.Uint64
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		sender := identity.New("s", crypto.NewDRBGFromUint64(seq.Add(1), "bench-pool"))
		to := identity.New("r", crypto.NewDRBGFromUint64(seq.Add(1), "bench-pool")).Address()
		var nonce uint64
		for pb.Next() {
			tx := ledger.SignTx(sender, to, 1, nonce, 50_000, nil)
			nonce++
			if err := pool.Add(tx); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkSealPooled measures the seal as a node pays it: 100k funded
// accounts, a durable store with fsync on, and a block's worth of
// transfers admitted through Pool.Add and sealed by Market.SealBlock — so
// the proposer is handed candidates its own pool vouches for. Only the
// seal is timed (signing and admission are the submitters' cost); each
// sender has sent before, so the state root folds value updates, as in
// steady state. 75 transfers is one 250 ms block at 300 tx/s, 600 a
// saturated one.
func BenchmarkSealPooled(b *testing.B) {
	const accounts = 100_000
	alloc := make(map[identity.Address]uint64, accounts)
	funded := make([]identity.Address, accounts)
	for i := range funded {
		d := crypto.HashBytes(binary.BigEndian.AppendUint64(nil, uint64(i)))
		copy(funded[i][:], d[:])
		alloc[funded[i]] = 1_000_000
	}
	for _, txs := range []int{75, 600} {
		b.Run(fmt.Sprintf("txs=%d", txs), func(b *testing.B) {
			senders := make([]*identity.Identity, txs)
			for i := range senders {
				senders[i] = identity.New("s", crypto.NewDRBGFromUint64(uint64(i), "bench-seal"))
				alloc[senders[i].Address()] = 1 << 40
			}
			store, err := chainstore.Open(b.TempDir(), nil)
			if err != nil {
				b.Fatal(err)
			}
			defer store.Close()
			m, err := market.Open(market.Config{Seed: 23, GenesisAlloc: alloc, BlockGasLimit: 120_000_000}, store)
			if err != nil {
				b.Fatal(err)
			}
			seal := func(round int) {
				for i, s := range senders {
					tx := ledger.SignTx(s, funded[(round*txs+i)*7919%accounts], 1, uint64(round), 50_000, nil)
					if err := m.Pool.Add(tx); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				block, err := m.SealBlock()
				b.StopTimer()
				if err != nil || len(block.Txs) != txs {
					b.Fatalf("sealed %v, err %v", block, err)
				}
			}
			b.StopTimer()
			seal(0) // every sender's nonce record exists from here on
			b.ReportAllocs()
			b.ResetTimer() // stays stopped: seal starts it around SealBlock only
			for i := 0; i < b.N; i++ {
				seal(i + 1)
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "ms/seal")
		})
	}
}

// BenchmarkTelemetryOverhead pins the cost of the instrumentation
// itself. The disabled path is what every instrumented hot path pays
// when telemetry is off — it must stay in the low single-digit
// nanoseconds with zero allocations — while the enabled path shows the
// full cost of an atomic counter bump and a timed histogram sample.
func BenchmarkTelemetryOverhead(b *testing.B) {
	for _, mode := range []struct {
		name string
		on   bool
	}{{"disabled", false}, {"enabled", true}} {
		reg := telemetry.New()
		reg.SetEnabled(mode.on)
		c := reg.Counter("bench.ops_total")
		h := reg.Histogram("bench.op_seconds", telemetry.TimeBuckets)
		b.Run("counter-"+mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.Inc()
			}
		})
		b.Run("timer-"+mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				t := h.Time()
				t.Stop()
			}
		})
		b.Run("observe-"+mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				h.Observe(float64(i))
			}
		})
	}
}

// benchCommitBlocks drives the instrumented ledger hot path: one block
// of plain transfers per iteration, against whatever state the global
// telemetry registry is in.
func benchCommitBlocks(b *testing.B, txPerBlock int) {
	b.Helper()
	authority := identity.New("auth", crypto.NewDRBGFromUint64(1, "bench"))
	users := make([]*identity.Identity, 50)
	alloc := map[identity.Address]uint64{}
	for i := range users {
		users[i] = identity.New("u", crypto.NewDRBGFromUint64(uint64(10+i), "bench"))
		alloc[users[i].Address()] = 1 << 40
	}
	chain, err := ledger.NewChain(ledger.ChainConfig{
		Authorities:  []identity.Address{authority.Address()},
		GenesisAlloc: alloc,
	})
	if err != nil {
		b.Fatal(err)
	}
	nonces := make([]uint64, len(users))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		txs := make([]*ledger.Transaction, txPerBlock)
		for j := range txs {
			u := j % len(users)
			txs[j] = ledger.SignTx(users[u], users[(u+1)%len(users)].Address(), 1, nonces[u], 50_000, nil)
			nonces[u]++
		}
		if _, err := chain.ProposeBlock(authority, uint64(i+1), txs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLedgerCommitTelemetry compares block commits with telemetry
// off (the default) and on; the delta is the end-to-end overhead of the
// instrumentation on a real subsystem and must stay within a few
// percent.
// BenchmarkLogDisabled pins the cost of a structured-log statement on
// a component whose level filters it out: the leveled methods inline
// to one atomic load and a branch, with no allocation, so hot paths
// can leave log statements in unconditionally. The acceptance bound is
// <= 5ns/op.
func BenchmarkLogDisabled(b *testing.B) {
	l := telemetry.NewLog(256)
	c := l.Component("bench")
	// Default level is off, so every call below is filtered.
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Debug("tx admitted")
	}
}

// BenchmarkLogDisabledFields adds field capture to the filtered call:
// constructors copy raw values into stack F structs (still zero
// allocations, formatting deferred), which dominates the cost. Sites
// whose field values are expensive guard with Component.Enabled.
func BenchmarkLogDisabledFields(b *testing.B) {
	l := telemetry.NewLog(256)
	c := l.Component("bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Debug("tx admitted", telemetry.Int("nonce", i), telemetry.Str("from", "bench"))
	}
}

// BenchmarkLogEnabled measures the retained-event path: field capture,
// ring append, and level check with the record actually kept.
func BenchmarkLogEnabled(b *testing.B) {
	l := telemetry.NewLog(256)
	if err := l.SetLevelSpec("debug"); err != nil {
		b.Fatal(err)
	}
	c := l.Component("bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Debug("tx admitted", telemetry.Int("nonce", i), telemetry.Str("from", "bench"))
	}
}

func BenchmarkLedgerCommitTelemetry(b *testing.B) {
	b.Run("disabled", func(b *testing.B) { benchCommitBlocks(b, 100) })
	b.Run("enabled", func(b *testing.B) {
		telemetry.Enable()
		defer telemetry.Disable()
		benchCommitBlocks(b, 100)
	})
}

// BenchmarkContractCall measures one ERC-20-style contract invocation
// including block sealing.
func BenchmarkContractCall(b *testing.B) {
	rt := contract.NewRuntime()
	if err := rt.RegisterCode("bench/counter", benchCounter{}); err != nil {
		b.Fatal(err)
	}
	authority := identity.New("auth", crypto.NewDRBGFromUint64(1, "bench"))
	user := identity.New("u", crypto.NewDRBGFromUint64(2, "bench"))
	chain, err := ledger.NewChain(ledger.ChainConfig{
		Authorities:  []identity.Address{authority.Address()},
		Applier:      rt,
		GenesisAlloc: map[identity.Address]uint64{user.Address(): 1 << 40},
	})
	if err != nil {
		b.Fatal(err)
	}
	deploy := ledger.SignTx(user, identity.ZeroAddress, 0, 0, 1_000_000, contract.DeployData("bench/counter", nil))
	if _, err := chain.ProposeBlock(authority, 1, []*ledger.Transaction{deploy}); err != nil {
		b.Fatal(err)
	}
	rcpt, _ := chain.Receipt(deploy.Hash())
	var addr identity.Address
	copy(addr[:], rcpt.Return)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := ledger.SignTx(user, addr, 0, uint64(i+1), 1_000_000, contract.CallData("inc", nil))
		if _, err := chain.ProposeBlock(authority, uint64(i+2), []*ledger.Transaction{tx}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchCounter is a minimal contract for BenchmarkContractCall.
type benchCounter struct{}

func (benchCounter) Init(*contract.Context, []byte) error { return nil }
func (benchCounter) Call(ctx *contract.Context, method string, _ []byte) ([]byte, error) {
	ctx.SetUint64("n", ctx.GetUint64("n")+1)
	return nil, nil
}

// BenchmarkPaillierEncrypt measures a single 1024-bit encryption — the
// atom of the E3 overhead.
func BenchmarkPaillierEncrypt(b *testing.B) {
	rng := crypto.NewDRBGFromUint64(1, "bench")
	key, err := he.GenerateKey(1024, rng)
	if err != nil {
		b.Fatal(err)
	}
	m := big.NewInt(123456)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := key.Encrypt(m, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSMCDot measures one 64-dimensional secret-shared dot product.
func BenchmarkSMCDot(b *testing.B) {
	rng := crypto.NewDRBGFromUint64(1, "bench")
	engine, err := smc.NewEngine(3, rng)
	if err != nil {
		b.Fatal(err)
	}
	const dim = 64
	x := make([]float64, dim)
	y := make([]float64, dim)
	for i := range x {
		x[i], y[i] = float64(i), float64(dim-i)
	}
	sx := engine.Share(x, smc.FixedScale)
	sy := engine.Share(y, smc.FixedScale)
	engine.DealTriples(dim * (b.N + 1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Dot(sx, sy); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLogisticUpdate measures one SGD step at dim 64.
func BenchmarkLogisticUpdate(b *testing.B) {
	m := ml.NewLogisticModel(64, 1e-3)
	x := make([]float64, 64)
	for i := range x {
		x[i] = float64(i%7) - 3
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Update(x, 1)
	}
}

// BenchmarkExactShapley12 measures the exact attribution at n=12 on a
// synthetic additive game (no model training), isolating the 2^n cost.
func BenchmarkExactShapley12(b *testing.B) {
	fn := func(coalition []int) float64 {
		s := 0.0
		for _, i := range coalition {
			s += float64(i)
		}
		return s
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := reward.ExactShapley(12, fn); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMerkleRoot1k measures the tx-root computation for a
// 1000-transaction block.
func BenchmarkMerkleRoot1k(b *testing.B) {
	leaves := make([][]byte, 1000)
	rng := crypto.NewDRBGFromUint64(1, "bench")
	for i := range leaves {
		leaves[i] = rng.Bytes(32)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if crypto.MerkleRootOf(leaves).IsZero() {
			b.Fatal("zero root")
		}
	}
}
