package proptest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"

	"pds2/internal/chainstore"
	"pds2/internal/contract"
	"pds2/internal/crypto"
	"pds2/internal/faults"
	"pds2/internal/ledger"
	"pds2/internal/market"
	"pds2/internal/proptest/flatroot"
	"pds2/internal/proptest/refinterp"
	"pds2/internal/semantic"
	"pds2/internal/vm"
)

// The differential replay oracle: every generated chain is re-executed
// by one runner (runMode) over a table of replica specs, and any
// divergence — in acceptance, in height, or in final state root — is a
// correctness failure of the ledger's import pipeline. A spec picks one
// value on each axis:
//
//	step     import (ImportBlock, what a following node runs) | audit
//	         (VerifyBlock first, which must leave the root untouched,
//	         then ImportBlock)
//	runtime  bytecode VM | reference evaluator (refExec: deployed
//	         policy programs re-executed from embedded source by the
//	         tree-walking oracle in refinterp), checked block by block
//	         against a VM witness on receipts and event order
//	store    none | a chainstore in a scratch directory, snapshotted
//	         every few blocks and killed on a deterministic schedule:
//	         torn bytes appended to the log (a crash mid-write), reopened
//	         from snapshot + log tail, importing resumed
//
// and one row swaps the block loop for the ledger's own export/replay
// entry point (ledger.Replay). A new axis value is a field and a row.
type replicaSpec struct {
	mode   string
	replay bool // entry point: ledger.Replay over the raw export
	audit  bool // step: VerifyBlock with the purity check, then ImportBlock
	// exec, the runtime: nil runs deployed policy programs on the VM;
	// refExec runs them on the reference evaluator beside a VM witness.
	exec  func(*vm.Module, semantic.Host) (semantic.Verdict, error)
	store bool // store: chainstore with the kill schedule
	// kills overrides the store rows' kill schedule; by default it is
	// seeded from the export so each generated chain crashes at
	// different (but reproducible) heights.
	kills *faults.Schedule
}

var (
	importSpec  = replicaSpec{mode: "import"}
	persistSpec = replicaSpec{mode: "persist", store: true}

	replicaSpecs = []replicaSpec{
		importSpec,
		{mode: "audit", audit: true},
		{mode: "replay", replay: true},
		persistSpec,
		{mode: "vm", exec: refExec},
		{mode: "vm-persist", exec: refExec, store: true},
	}
)

// ModeResult is the outcome of one replay mode over one exported chain.
type ModeResult struct {
	Mode     string
	Err      error  // nil when the whole chain was accepted
	FailedAt uint64 // height of the first rejected block (0 = none)
	Height   uint64 // final height reached
	Root     crypto.Digest
	// FlatRoot is the final state's digest under the pre-bucketing
	// state-root definition (flatRoot) — a second, independently
	// computed fingerprint of the same records.
	FlatRoot crypto.Digest
	// Kills counts the kill/restart cycles that fired (store rows), so
	// harnesses can assert the crash path was exercised.
	Kills int
}

// flatRoot is the flat state-root oracle over a chain's exported maps.
func flatRoot(snap *ledger.StateSnapshot) crypto.Digest {
	return flatroot.Of(snap.Balances, snap.Nonces, snap.Storage)
}

// observe records where chain ended up.
func (m *ModeResult) observe(chain *ledger.Chain) {
	m.Height = chain.Height()
	m.Root = chain.State().Root()
	m.FlatRoot = flatRoot(chain.ExportSnapshot())
}

func (m ModeResult) String() string {
	if m.Err != nil {
		return fmt.Sprintf("%s: rejected block %d: %v", m.Mode, m.FailedAt, m.Err)
	}
	return fmt.Sprintf("%s: height %d root %s", m.Mode, m.Height, m.Root.Short())
}

// ExportMarket serializes a market's chain into the portable form the
// replay modes consume.
func ExportMarket(m *market.Market) ([]byte, error) {
	var buf bytes.Buffer
	if err := m.Chain.Export(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// newReplica rebuilds an empty chain from an export's embedded genesis
// configuration, executing with rt.
func newReplica(exp *ledger.ChainExport, rt *contract.Runtime) (*ledger.Chain, error) {
	return ledger.NewChain(ledger.ChainConfig{
		Authorities:   exp.Authorities,
		BlockGasLimit: exp.BlockGasLimit,
		GenesisAlloc:  exp.GenesisAlloc,
		Applier:       rt,
	})
}

// decodeExport parses exported chain bytes.
func decodeExport(data []byte) (*ledger.ChainExport, error) {
	var exp ledger.ChainExport
	if err := json.Unmarshal(data, &exp); err != nil {
		return nil, fmt.Errorf("proptest: decode export: %w", err)
	}
	return &exp, nil
}

// runMode replays an exported chain on the replica spec describes and
// reports where it ended up. The final root must match every other row:
// neither the step, the engine nor persistence may be visible to
// consensus.
func runMode(data []byte, spec replicaSpec) ModeResult {
	res := ModeResult{Mode: spec.mode}
	chain, err := spec.run(data, &res)
	res.Err = err
	if chain != nil {
		res.observe(chain)
	}
	return res
}

// run is runMode's body: it returns the replica as far as it got (nil if
// it could not be built or reopened) and the first error, recording the
// failing height and the kill count in res.
func (s replicaSpec) run(data []byte, res *ModeResult) (*ledger.Chain, error) {
	rt, err := market.NewRuntimeWithExec(s.exec)
	if err != nil {
		return nil, err
	}
	if s.replay {
		return ledger.Replay(bytes.NewReader(data), rt)
	}
	exp, err := decodeExport(data)
	if err != nil {
		return nil, err
	}
	chain, err := newReplica(exp, rt)
	if err != nil {
		return nil, err
	}
	var witness *ledger.Chain
	if s.exec != nil {
		vmRT, err := market.NewRuntime()
		if err != nil {
			return nil, err
		}
		if witness, err = newReplica(exp, vmRT); err != nil {
			return nil, err
		}
	}
	var (
		store *chainstore.Store
		dir   string
		inj   *faults.Injector
	)
	if s.store {
		if dir, err = os.MkdirTemp("", "pds2-persist-*"); err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		if store, err = chainstore.Open(dir, nil); err != nil {
			return nil, err
		}
		defer func() { store.Close() }() // whichever store is open at return
		if err := store.InitChain(chain); err != nil {
			return nil, err
		}
		store.AttachSnapshotting(chain, snapshotEvery)
		sched := faults.KillRestart(uint64(len(data)) * 2654435761)
		if s.kills != nil {
			sched = *s.kills
		}
		inj = faults.NewInjector(sched)
	}

	for i := 0; i < len(exp.Blocks); {
		b := exp.Blocks[i]
		if err := s.step(chain, witness, b); err != nil {
			res.FailedAt = b.Header.Height
			return chain, err
		}
		i++
		if store == nil || !inj.ShouldKill() {
			continue
		}
		res.Kills++
		// Crash: abandon the store, tear the log's tail (a frame died
		// mid-write), then reopen and rebuild.
		_ = store.Close() // the fsynced prefix is what survives either way
		if err := tearActiveSegment(dir); err != nil {
			return nil, err
		}
		reopened, err := chainstore.Open(dir, nil)
		if err != nil {
			return nil, fmt.Errorf("proptest: reopen after kill: %w", err)
		}
		store = reopened
		if chain, err = store.OpenChain(rt); err != nil {
			return nil, fmt.Errorf("proptest: rebuild after kill: %w", err)
		}
		store.AttachSnapshotting(chain, snapshotEvery)
		// Torn-tail truncation may have dropped the last committed
		// block; re-import from wherever the durable prefix ends.
		i = int(chain.Height()) - firstImportOffset(exp)
	}
	return chain, nil
}

// refExec runs a deployed policy module on the reference evaluator: it
// re-parses the module's embedded source (deployPolicy has checked that
// the source compiles to the module's code) and tree-walks it on the
// registry's host.
func refExec(mod *vm.Module, h semantic.Host) (semantic.Verdict, error) {
	prog, err := semantic.ParseProgram(mod.Source)
	if err != nil {
		return semantic.Verdict{}, err
	}
	return refinterp.RunProgram(prog, h)
}

// snapshotEvery is the store rows' snapshot cadence, in blocks.
const snapshotEvery = 4

// step advances chain over one block the way the row says. With a
// witness — a VM replica beside a reference-interpreter chain — the
// witness imports the block too (unless a kill made chain re-import a
// block the witness already holds) and both must have recorded it
// identically: the two engines share one host adapter and one gas charge
// schedule, so a VM miscompilation, dispatch bug or gas-charge drift
// breaks here even when each engine is self-consistent.
func (s replicaSpec) step(chain, witness *ledger.Chain, b *ledger.Block) error {
	if s.audit {
		before := chain.State().Root()
		verr := chain.VerifyBlock(b)
		if after := chain.State().Root(); after != before {
			return fmt.Errorf("proptest: VerifyBlock mutated state: %s -> %s", before.Short(), after.Short())
		}
		if verr != nil {
			return verr
		}
	}
	err := chain.ImportBlock(b)
	if s.audit && err != nil {
		return fmt.Errorf("proptest: verified block failed import: %w", err)
	}
	if witness == nil {
		return err
	}
	var werr error
	if witness.Height() < b.Header.Height {
		werr = witness.ImportBlock(b)
	}
	if (err == nil) != (werr == nil) {
		return fmt.Errorf("proptest: lockstep acceptance split: %v vs %v", werr, err)
	}
	if err != nil {
		return err
	}
	return sameRecord(witness, chain, b)
}

// sameRecord checks that replicas a and b recorded block blk alike.
// ImportBlock already rejects any state-root or gas divergence against
// the header; on top of that the two must agree on each transaction's
// receipt and on the event log — order included — so a replica that
// reorders events or rewrites an error message diverges here even if the
// state root happens to survive. A replica reopened from a snapshot logs
// only the events since, so the logs are compared over the tail both
// hold (all of it when neither was reopened).
func sameRecord(a, b *ledger.Chain, blk *ledger.Block) error {
	for _, tx := range blk.Txs {
		ar, aok := a.Receipt(tx.Hash())
		br, bok := b.Receipt(tx.Hash())
		if !aok || !bok || !reflect.DeepEqual(ar, br) {
			return fmt.Errorf("proptest: lockstep receipt divergence for tx %s: %+v vs %+v",
				tx.Hash().Short(), ar, br)
		}
	}
	if a.Height() != b.Height() {
		return nil // b is re-importing behind a: a's log tail is a later block's
	}
	aev, bev := a.Events(""), b.Events("")
	n := min(len(aev), len(bev))
	whole := a.Base() == 0 && b.Base() == 0
	if (whole && len(aev) != len(bev)) || (n > 0 && !reflect.DeepEqual(aev[len(aev)-n:], bev[len(bev)-n:])) {
		return fmt.Errorf("proptest: lockstep event-log divergence at height %d: %d vs %d events",
			blk.Header.Height, len(aev), len(bev))
	}
	return nil
}

// firstImportOffset maps a chain height back to an index into
// exp.Blocks (whose first entry is height 1... unless a market sealed
// setup blocks before the export; the blocks slice always starts at
// height Blocks[0].Header.Height).
func firstImportOffset(exp *ledger.ChainExport) int {
	if len(exp.Blocks) == 0 {
		return 0
	}
	return int(exp.Blocks[0].Header.Height) - 1
}

// tearActiveSegment appends garbage to the newest log segment,
// simulating a crash partway through an append: a frame header
// promising more bytes than were ever written.
func tearActiveSegment(dir string) error {
	names, err := filepath.Glob(filepath.Join(dir, "segments", "seg-*.log"))
	if err != nil || len(names) == 0 {
		return err
	}
	f, err := os.OpenFile(names[len(names)-1], os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = f.Write([]byte{0x00, 0x01, 0xFF, 0x03, 0xDE, 0xAD})
	return err
}

// RunReplayModes executes an exported chain through every row of the
// replica matrix.
func RunReplayModes(data []byte) []ModeResult {
	results := make([]ModeResult, len(replicaSpecs))
	for i, spec := range replicaSpecs {
		results[i] = runMode(data, spec)
	}
	return results
}

// DifferentialCheck asserts that every mode accepted the chain and that
// all modes converged on the same height, state root and flat root (the
// pre-bucketing definition, recomputed from exported maps); live, when
// non-nil, is the originating market every mode must also agree with.
func DifferentialCheck(results []ModeResult, live *market.Market) error {
	if len(results) == 0 {
		return fmt.Errorf("proptest: no replay results")
	}
	for _, r := range results {
		if r.Err != nil {
			return fmt.Errorf("proptest: mode %s rejected the chain: %w", r.Mode, r.Err)
		}
	}
	// Roots and flat roots must agree together: same records under the
	// old definition ⇔ same commitment under the new one.
	want := results[0]
	for _, r := range results[1:] {
		if r.Height != want.Height || r.Root != want.Root || r.FlatRoot != want.FlatRoot {
			return fmt.Errorf("proptest: divergence: %s vs %s (flat roots %s vs %s)",
				want, r, want.FlatRoot.Short(), r.FlatRoot.Short())
		}
	}
	if live != nil {
		if h := live.Height(); h != want.Height {
			return fmt.Errorf("proptest: replicas at height %d, live chain at %d", want.Height, h)
		}
		if root := live.Chain.State().Root(); root != want.Root {
			return fmt.Errorf("proptest: replica root %s, live root %s", want.Root.Short(), root.Short())
		}
		if flat := flatRoot(live.Chain.ExportSnapshot()); flat != want.FlatRoot {
			return fmt.Errorf("proptest: replica flat root %s, live flat root %s", want.FlatRoot.Short(), flat.Short())
		}
	}
	return nil
}

// CheckDetection asserts that every mode rejected a (corrupted) chain —
// a corruption that slips past any replica is a validation hole.
func CheckDetection(results []ModeResult) error {
	for _, r := range results {
		if r.Err == nil {
			return fmt.Errorf("proptest: mode %s accepted a corrupted chain (height %d, root %s)",
				r.Mode, r.Height, r.Root.Short())
		}
	}
	return nil
}
