package experiments

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"pds2/internal/api"
	"pds2/internal/chainstore"
	"pds2/internal/loadgen"
	"pds2/internal/market"
	"pds2/internal/telemetry"
)

// E17Durability measures the durable-node story end to end: an
// open-loop load run (deterministic simulated accounts, mixed traffic)
// against the real HTTP API, first in memory, then writing through the
// segmented chain store; afterwards the durable node is torn down like
// a crash — torn bytes appended to its active log segment — and
// reopened from snapshot + log tail, which must land on the identical
// height and state root. §II-E's audit guarantee is only worth anything
// if the chain a node restarts from is the chain it sealed.
func E17Durability(quick bool) Table {
	t := Table{
		ID:    "E17",
		Title: "durable store: load SLOs and crash recovery",
		PaperClaim: "the governance layer records every marketplace action on chain; " +
			"a node must survive restarts without losing committed state while sustaining traffic",
		Columns: []string{"scenario", "accounts", "offered/s", "committed tx/s", "p99 transfer (ms)", "errors", "blocks", "outcome"},
	}
	// The load harness reads throughput from /metrics, which answers
	// 503 while telemetry is off (the experiments CLI may run with
	// -telemetry=false; that flag governs the printed summaries, not
	// whether this experiment can measure).
	telemetry.Enable()

	accounts, rate, duration := 20_000, 500.0, 10*time.Second
	if quick {
		accounts, rate, duration = 500, 150.0, 2*time.Second
	}
	cfg := loadgen.Config{
		Accounts: accounts,
		Workers:  8,
		Rate:     rate,
		Duration: duration,
		Seed:     17,
		SLO:      loadgen.SLO{MinTxPerSec: 10, MaxErrorRate: 0.05},
	}

	row := func(scenario string, rep *loadgen.Report, outcome string) {
		p99 := 0.0
		for _, c := range rep.Classes {
			if c.Class == loadgen.ClassTransfer {
				p99 = c.P99 * 1e3
			}
		}
		t.AddRow(scenario, rep.Accounts, rep.OfferedRate, rep.CommittedTxPerSec, p99, rep.Errors, rep.Blocks, outcome)
	}
	sloOutcome := func(rep *loadgen.Report) string {
		if len(rep.Breaches) > 0 {
			return "SLO BREACH: " + rep.Breaches[0]
		}
		return "SLO pass"
	}

	// Scenario 1: in-memory node — the latency/throughput baseline.
	rep, _, err := loadNode(cfg, "")
	if err != nil {
		t.AddRow("in-memory", accounts, rate, "-", "-", "-", "-", "setup: "+err.Error())
		return t
	}
	row("in-memory", rep, sloOutcome(rep))

	// Scenario 2: durable node — every block fsynced through the chain
	// store, snapshots every 25 blocks. The SLO must hold here too:
	// durability that costs the throughput floor is not shippable.
	dir, err := os.MkdirTemp("", "pds2-e17-*")
	if err != nil {
		t.AddRow("durable", accounts, rate, "-", "-", "-", "-", "setup: "+err.Error())
		return t
	}
	defer os.RemoveAll(dir)
	rep2, final, err := loadNode(cfg, dir)
	if err != nil {
		t.AddRow("durable", accounts, rate, "-", "-", "-", "-", "setup: "+err.Error())
		return t
	}
	row("durable", rep2, sloOutcome(rep2))

	// Scenario 3: crash the durable node (torn bytes appended to its
	// active segment, no clean close happened for the tail) and reopen
	// from snapshot + log tail.
	outcome := func() string {
		if err := tearNewestSegment(dir); err != nil {
			return "tear: " + err.Error()
		}
		store, err := chainstore.Open(dir, nil)
		if err != nil {
			return "reopen: " + err.Error()
		}
		defer store.Close()
		m2, err := market.Open(market.Config{
			Seed:         cfg.Seed,
			GenesisAlloc: loadgen.GenesisAlloc(cfg.Seed, accounts, 1_000_000),
		}, store)
		if err != nil {
			return "recover: " + err.Error()
		}
		if m2.Height() != final.height {
			return fmt.Sprintf("LOST BLOCKS: recovered height %d, sealed %d", m2.Height(), final.height)
		}
		if m2.Chain.State().Root().Hex() != final.root {
			return "STATE DIVERGED after recovery"
		}
		return fmt.Sprintf("recovered @%d from snapshot @%d, root match", m2.Height(), m2.Chain.Base())
	}()
	t.AddRow("crash+reopen", accounts, "-", "-", "-", "-", "-", outcome)

	t.Notes = append(t.Notes,
		"open-loop harness (internal/loadgen): ops fire on the wall clock at the offered rate; shed load is reported, never silently delayed",
		"crash+reopen appends torn bytes to the active log segment before reopening — recovery must truncate the tear and resume from snapshot + log tail",
		"the same harness is reproducible standalone: go run ./cmd/pds2-load (LOAD_<date>.json)")
	return t
}

// finalState captures where a load node's chain ended.
type finalState struct {
	height uint64
	root   string
}

// loadNode self-hosts a node (durable when dir is non-empty) on a
// loopback listener, runs the load config against it over real HTTP,
// and tears it down cleanly except for the store, which is abandoned
// un-closed when durable — the crash scenario reopens it.
func loadNode(cfg loadgen.Config, dir string) (*loadgen.Report, finalState, error) {
	host, err := api.StartHost(api.HostConfig{
		Market: market.Config{
			Seed:         cfg.Seed,
			GenesisAlloc: loadgen.GenesisAlloc(cfg.Seed, cfg.Accounts, 1_000_000),
			MempoolSize:  100_000,
		},
		DataDir:       dir,
		SnapshotEvery: 25,
		Listen:        "127.0.0.1:0",
		SealInterval:  25 * time.Millisecond,
	})
	if err != nil {
		return nil, finalState{}, err
	}
	cfg.Target = host.URL
	rep, runErr := loadgen.Run(context.Background(), cfg)
	// Stop, not Close: the store is deliberately left as a killed process
	// would leave it — the crash scenario reopens it as found.
	shutCtx, done := context.WithTimeout(context.Background(), 2*time.Second)
	_ = host.Stop(shutCtx) // a request still in flight after 2 s does not change the final state read below
	done()
	m := host.Market
	return rep, finalState{height: m.Height(), root: m.Chain.State().Root().Hex()}, runErr
}

// tearNewestSegment simulates dying mid-append: a frame header
// promising more bytes than were written lands at the log's tail.
func tearNewestSegment(dir string) error {
	names, err := filepath.Glob(filepath.Join(dir, "segments", "seg-*.log"))
	if err != nil || len(names) == 0 {
		return fmt.Errorf("no segments found: %v", err)
	}
	f, err := os.OpenFile(names[len(names)-1], os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = f.Write([]byte{0x00, 0x00, 0x40, 0x00, 0xDE, 0xAD, 0xBE, 0xEF})
	return err
}
