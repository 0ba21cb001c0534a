package experiments

import (
	"fmt"
	"runtime"
	"time"

	"pds2/internal/crypto"
	"pds2/internal/identity"
	"pds2/internal/ledger"
)

// A5BlockPipeline ablates the governance layer's block-import pipeline:
// the double-execution replica path (audit-verify, then re-execute on
// import — the pre-optimization behavior) against single-execution
// import, the stateless signature-verification phase at increasing
// worker counts, and block-at-a-time import against the streamed import
// that verifies block N+k while block N executes. The table is the
// governance-throughput counterpart of E2: it isolates how fast a replica
// can absorb blocks produced elsewhere, which bounds how heavy
// workload-lifecycle traffic the marketplace can replicate.
func A5BlockPipeline(quick bool) Table {
	t := Table{
		ID:         "A5",
		Title:      "Ablation: block import pipeline (execution count × stateless workers)",
		PaperClaim: "§III-A: the governance chain must absorb every lifecycle transaction; import cost bounds replica throughput",
		Columns:    []string{"pipeline", "workers", "txs/block", "blocks", "tx/s", "speedup"},
	}
	txPerBlock, blocks := 1_000, 8
	if quick {
		txPerBlock, blocks = 200, 3
	}

	produced, cfg, err := producePipelineBlocks(txPerBlock, blocks)
	if err != nil {
		t.AddRow("setup", "ERR", err.Error(), "", "", "")
		return t
	}

	modes := []pipelineMode{
		{"verify+import (double-exec)", 1, true, false},
		{"import (single-exec)", 1, false, false},
		{"import (single-exec)", 2, false, false},
		{"import (single-exec)", 0, false, false}, // 0 = GOMAXPROCS
		{"stream (verify-ahead)", 1, false, true},
		{"stream (verify-ahead)", 2, false, true},
		{"stream (verify-ahead)", 0, false, true},
	}
	var baseline float64
	for _, md := range modes {
		mcfg := cfg
		mcfg.StatelessWorkers = md.workers
		replica, err := ledger.NewChain(mcfg)
		if err != nil {
			t.AddRow(md.name, md.workers, "ERR", err.Error(), "", "")
			continue
		}
		start := time.Now()
		if err := md.absorb(replica, produced); err != nil {
			t.AddRow(md.name, md.workers, "ERR", err.Error(), "", "")
			return t
		}
		elapsed := time.Since(start).Seconds()
		tps := float64(txPerBlock*blocks) / elapsed
		if baseline == 0 {
			baseline = tps
		}
		workers := md.workers
		if workers == 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		t.AddRow(md.name, workers, txPerBlock, blocks,
			fmt.Sprintf("%.0f", tps), fmt.Sprintf("%.2fx", tps/baseline))
	}
	t.Notes = append(t.Notes,
		"double-exec replays the pre-optimization replica path: audit-verify on a snapshot, revert, re-execute on import",
		"stream hands each block's seal, tx-root and signature checks to the workers up to 16 blocks ahead of the one executing; with 1 worker the checks run on the producer goroutine, still beside the executor",
		"speedup is relative to the double-exec single-worker baseline",
		fmt.Sprintf("ran with GOMAXPROCS=%d on %d CPUs", runtime.GOMAXPROCS(0), runtime.NumCPU()))
	return t
}

// pipelineMode is one A5 row: how a replica absorbs the produced blocks.
type pipelineMode struct {
	name    string
	workers int
	audit   bool // verify first, then import: executes txs twice
	stream  bool // one ImportStream over all blocks instead of a loop of ImportBlock
}

func (md pipelineMode) absorb(replica *ledger.Chain, blocks []*ledger.Block) error {
	if md.stream {
		_, err := replica.ImportStream(ledger.BlocksOf(blocks...))
		return err
	}
	for _, b := range blocks {
		if md.audit {
			if err := replica.VerifyBlock(b); err != nil {
				return err
			}
		}
		if err := replica.ImportBlock(b); err != nil {
			return err
		}
	}
	return nil
}

// producePipelineBlocks builds a producer chain and seals `blocks`
// transfer-only blocks of txPerBlock transactions each, returning them
// with the replica config that validates them.
func producePipelineBlocks(txPerBlock, blocks int) ([]*ledger.Block, ledger.ChainConfig, error) {
	rng := crypto.NewDRBGFromUint64(44, "a4")
	authority := identity.New("auth", rng.Fork("auth"))
	users := make([]*identity.Identity, 50)
	alloc := map[identity.Address]uint64{}
	for i := range users {
		users[i] = identity.New("u", rng.Fork(fmt.Sprintf("u%d", i)))
		alloc[users[i].Address()] = 1 << 40
	}
	cfg := ledger.ChainConfig{
		Authorities:  []identity.Address{authority.Address()},
		GenesisAlloc: alloc,
	}
	producer, err := ledger.NewChain(cfg)
	if err != nil {
		return nil, cfg, err
	}
	nonces := make([]uint64, len(users))
	out := make([]*ledger.Block, 0, blocks)
	for h := 1; h <= blocks; h++ {
		txs := make([]*ledger.Transaction, txPerBlock)
		for j := range txs {
			u := j % len(users)
			txs[j] = ledger.SignTx(users[u], users[(u+1)%len(users)].Address(), 1, nonces[u], 50_000, nil)
			nonces[u]++
		}
		b, err := producer.ProposeBlock(authority, uint64(h), txs)
		if err != nil {
			return nil, cfg, err
		}
		out = append(out, b)
	}
	return out, cfg, nil
}

func init() {
	All = append(All,
		Experiment{"A5", "ablation: block import pipeline", A5BlockPipeline},
	)
}
