package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"pds2/internal/api"
	"pds2/internal/chainstore"
	"pds2/internal/crypto"
	"pds2/internal/ledger"
	"pds2/internal/market"
	"pds2/internal/policy"
)

// layerInput is what the layer pass of a traced run works from: the
// chain's replayable configuration (or a snapshot to start from) and the
// blocks the run itself sealed.
type layerInput struct {
	export   ledger.ChainExport
	snapshot *ledger.StateSnapshot // when set, the replica starts here instead of genesis
	blocks   []*ledger.Block       // contiguous, first one follows the replica's start
	skip     int                   // leading set-up blocks: imported, not measured
	seed     uint64

	// The live market and two of its datasets, for policy evaluation.
	live             *market.Market
	declData, vmData crypto.Digest
}

// newLayerInput captures every block of the market's chain; the first
// setupHeight of them are set-up blocks.
func newLayerInput(m *market.Market, setupHeight uint64) *layerInput {
	in := &layerInput{export: m.Chain.ExportConfig(), skip: int(setupHeight), live: m}
	for h := uint64(1); h <= m.Chain.Height(); h++ {
		b, err := m.Chain.BlockAt(h)
		if err != nil {
			break
		}
		in.blocks = append(in.blocks, b)
	}
	return in
}

// runLayerPass times each layer's public function in isolation, on a
// fresh replica and scratch stores, over the blocks the run sealed. It
// is time-boxed: it measures blocks in chain order until the budget is
// spent, so per-transaction numbers are means over whatever it reached.
func runLayerPass(res *result, in *layerInput, scratch string) error {
	m := res.Metrics
	if err := os.RemoveAll(scratch); err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	rt, err := market.NewRuntime()
	if err != nil {
		return err
	}
	var replica *ledger.Chain
	if in.snapshot != nil {
		replica, err = ledger.NewChainFromSnapshot(in.snapshot, rt)
	} else {
		replica, err = ledger.NewChain(ledger.ChainConfig{
			Authorities:   in.export.Authorities,
			BlockGasLimit: in.export.BlockGasLimit,
			GenesisAlloc:  in.export.GenesisAlloc,
			Applier:       rt,
		})
	}
	if err != nil {
		return fmt.Errorf("build replica: %w", err)
	}
	pool := ledger.NewMempool(mempoolSize)
	runtime.GC() // the replica's construction garbage would otherwise be collected mid-measurement

	var verify, add, batch, exec, root, txRoot, imp time.Duration
	var txs, blocks int
	var gas uint64
	var measured []*ledger.Block
	deadline := time.Now().Add(layerPassBudget)
	for i, b := range in.blocks {
		if i < in.skip || len(b.Txs) == 0 {
			if err := replica.ImportBlock(b); err != nil {
				return fmt.Errorf("replica import %d: %w", b.Header.Height, err)
			}
			continue
		}
		if time.Now().After(deadline) {
			break
		}
		t := time.Now()
		for _, tx := range b.Txs {
			if err := tx.VerifyBasic(); err != nil {
				return err
			}
		}
		verify += time.Since(t)

		t = time.Now()
		for _, tx := range b.Txs {
			if err := pool.Add(tx); err != nil {
				return fmt.Errorf("replica pool add: %w", err)
			}
		}
		add += time.Since(t)

		t = time.Now()
		got := pool.NextBatch(replica.State(), 10_000, replica.GasLimit())
		batch += time.Since(t)
		if len(got) != len(b.Txs) {
			return fmt.Errorf("replica batch at %d: %d of %d transactions executable", b.Header.Height, len(got), len(b.Txs))
		}

		t = time.Now()
		replica.State().Root()
		root += time.Since(t)

		// Execution alone: the applier run serially over the block on
		// the replica's state, then reverted. (Chain.ExecuteBatch adds a
		// state root, whose run-to-run noise at 100k accounts is larger
		// than a block's whole execution, so it is not subtracted out.)
		st := replica.State()
		snap := st.Snapshot()
		t = time.Now()
		for _, tx := range b.Txs {
			r, err := rt.Apply(st, tx, b.Header.Height)
			if err != nil {
				st.RevertTo(snap)
				return fmt.Errorf("replica apply at %d: %w", b.Header.Height, err)
			}
			gas += r.GasUsed
		}
		exec += time.Since(t)
		st.RevertTo(snap)

		t = time.Now()
		ledger.TxRoot(b.Txs)
		txRoot += time.Since(t)

		t = time.Now()
		if err := replica.ImportBlock(b); err != nil {
			return fmt.Errorf("replica import %d: %w", b.Header.Height, err)
		}
		imp += time.Since(t)
		pool.Remove(b.Txs)

		txs += len(b.Txs)
		blocks++
		measured = append(measured, b)
	}
	res.Info["layer_pass_blocks"] = blocks
	res.Info["layer_pass_txs"] = txs
	if txs == 0 {
		return nil
	}
	perTx := func(d time.Duration) float64 { return usPerTx(d, txs) }
	m["ledger.tx.verify_us_per_tx"] = perTx(verify)
	m["ledger.mempool.add_us_per_tx"] = perTx(add)
	m["ledger.mempool.next_batch_us_per_tx"] = perTx(batch)
	m["ledger.chain.execute_us_per_tx"] = perTx(exec)
	m["ledger.state.root_ms_per_block"] = ms(root) / float64(blocks)
	m["ledger.block.tx_root_us_per_tx"] = perTx(txRoot)
	m["ledger.gas_per_tx_mean"] = float64(gas) / float64(txs)
	m["ledger.chain.import_us_per_tx"] = perTx(imp)
	// Import verifies signatures on GOMAXPROCS workers, the pass serially.
	parallelVerify := verify / time.Duration(runtime.GOMAXPROCS(0))
	m["ledger.chain.import_coverage"] = float64(parallelVerify+exec+root+txRoot) / float64(imp)

	if err := storePass(m, measured, txs, scratch); err != nil {
		return err
	}
	if err := handlerPass(m, measured, txs, in.seed); err != nil {
		return err
	}
	return policyPass(m, in)
}

// usPerTx is a duration spread over txs transactions, in microseconds.
func usPerTx(d time.Duration, txs int) float64 { return float64(d) / 1e3 / float64(txs) }

// storePass times Store.Append with and without fsync, Store.Blocks and
// chainstore.Open on scratch stores holding the measured blocks.
func storePass(m map[string]float64, blocks []*ledger.Block, txs int, scratch string) error {
	fill := func(dir string, opts *chainstore.Options) (time.Duration, error) {
		st, err := chainstore.Open(dir, opts)
		if err != nil {
			return 0, err
		}
		t := time.Now()
		for _, b := range blocks {
			if err := st.Append(b); err != nil {
				st.Close()
				return 0, err
			}
		}
		d := time.Since(t)
		return d, st.Close()
	}
	durable := filepath.Join(scratch, "fsync")
	d, err := fill(durable, nil)
	if err != nil {
		return fmt.Errorf("scratch append: %w", err)
	}
	m["chainstore.append_us_per_tx"] = usPerTx(d, txs)
	d, err = fill(filepath.Join(scratch, "nofsync"), &chainstore.Options{NoFsync: true})
	if err != nil {
		return fmt.Errorf("scratch append without fsync: %w", err)
	}
	m["chainstore.append_nofsync_us_per_tx"] = usPerTx(d, txs)

	t := time.Now()
	st, err := chainstore.Open(durable, nil)
	if err != nil {
		return fmt.Errorf("scratch reopen: %w", err)
	}
	m["chainstore.reopen_ms"] = ms(time.Since(t))
	defer st.Close()
	t = time.Now()
	if err := st.Blocks(blocks[0].Header.Height, func(*ledger.Block) error { return nil }); err != nil {
		return fmt.Errorf("scratch read: %w", err)
	}
	m["chainstore.read_us_per_tx"] = usPerTx(time.Since(t), txs)
	return nil
}

// handlerPass times the admission handler alone: Server.ServeHTTP with a
// recorder on an idle market. Admission reads no account state, so the
// idle market has an empty genesis.
func handlerPass(m map[string]float64, blocks []*ledger.Block, txs int, seed uint64) error {
	idle, err := market.New(market.Config{Seed: seed, MempoolSize: mempoolSize, BlockGasLimit: blockGasLimit})
	if err != nil {
		return fmt.Errorf("idle market: %w", err)
	}
	srv := api.NewServer(idle, false)
	var bodies [][]byte
	for _, b := range blocks {
		for _, tx := range b.Txs {
			body, err := json.Marshal(tx)
			if err != nil {
				return err
			}
			bodies = append(bodies, body)
		}
	}
	t := time.Now()
	for _, body := range bodies {
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/transactions", bytes.NewReader(body)))
		if w.Code != http.StatusAccepted {
			return fmt.Errorf("idle handler answered %d: %s", w.Code, w.Body.String())
		}
	}
	m["api.submit.handler_us_per_tx"] = usPerTx(time.Since(t), txs)
	return nil
}

// policyPass times Market.EvalPolicy on a dataset governed by a
// declarative policy and on one governed by a deployed policy program.
func policyPass(m map[string]float64, in *layerInput) error {
	const evals = 200
	for _, c := range []struct {
		metric string
		id     crypto.Digest
	}{{"market.policy.eval_us", in.declData}, {"vm.policy.eval_us", in.vmData}} {
		if c.id.IsZero() {
			continue
		}
		t := time.Now()
		for i := 0; i < evals; i++ {
			rec, err := in.live.EvalPolicy(c.id, policy.LayerMatch, market.DefaultComputationClass, "", 4)
			if err != nil {
				return fmt.Errorf("%s: %w", c.metric, err)
			}
			if !rec.Allowed() {
				return fmt.Errorf("%s: policy denied the class it allows (%s)", c.metric, rec.Code)
			}
		}
		m[c.metric] = float64(time.Since(t)) / 1e3 / evals
	}
	return nil
}
