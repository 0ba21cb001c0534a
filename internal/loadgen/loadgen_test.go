package loadgen

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"pds2/internal/api"
	"pds2/internal/market"
	"pds2/internal/telemetry"
)

// startNode spins up a real API server over HTTP with the loadgen
// population funded at genesis, plus the same auto-sealer loop
// pds2-node runs.
func startNode(t *testing.T, seed uint64, accounts int) (string, context.CancelFunc) {
	t.Helper()
	telemetry.Enable()
	m, err := market.New(market.Config{
		Seed:         seed,
		GenesisAlloc: market.GenesisAlloc(seed, accounts, 1_000_000),
		MempoolSize:  50_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(api.NewServer(m, true))
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		client := api.NewClient(ts.URL)
		tick := time.NewTicker(25 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
			}
			if st, err := client.Status(ctx); err == nil && st.Pending > 0 {
				_, _ = client.Seal(ctx)
			}
		}
	}()
	t.Cleanup(ts.Close)
	return ts.URL, cancel
}

func TestRunAgainstInProcessNode(t *testing.T) {
	const seed, accounts = 42, 300
	url, stop := startNode(t, seed, accounts)
	defer stop()

	rep, err := Run(context.Background(), Config{
		Target:   url,
		Accounts: accounts,
		Workers:  4,
		Rate:     250,
		Duration: 3 * time.Second,
		Seed:     seed,
		SLO:      SLO{MinTxPerSec: 5, MaxErrorRate: 0.05},
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ops == 0 {
		t.Fatal("no operations executed")
	}
	if rep.CommittedTxs == 0 {
		t.Fatal("no transactions committed — throughput measurement broken")
	}
	if rep.Blocks == 0 {
		t.Fatal("no blocks sealed during the run")
	}
	for _, c := range rep.Classes {
		if c.Class == ClassLifecycle {
			continue // low weight; may legitimately draw zero ops in 3s
		}
		if c.Ops == 0 {
			t.Errorf("class %s drew no operations", c.Class)
		}
		if c.Ops > 0 && c.P99 == 0 {
			t.Errorf("class %s has ops but no latency quantiles", c.Class)
		}
	}
	if len(rep.Breaches) != 0 {
		t.Fatalf("unexpected SLO breaches: %v", rep.Breaches)
	}
	// The runtime and build sections carry real measurements.
	if rep.Runtime.HeapInusePeakBytes == 0 || rep.Runtime.GoroutinesPeak == 0 {
		t.Fatalf("runtime section empty: %+v", rep.Runtime)
	}
	if rep.Build.GoVersion == "" || rep.Build.NumCPU == 0 {
		t.Fatalf("build section empty: %+v", rep.Build)
	}
	if rep.NodeBuild == nil || rep.NodeBuild.GoVersion == "" {
		t.Fatalf("node build section missing: %+v", rep.NodeBuild)
	}

	// The report round-trips through its canonical file.
	dir := t.TempDir()
	path, err := rep.WriteFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != rep.Filename() {
		t.Fatalf("wrote %s, want %s", path, rep.Filename())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Schema != ReportSchema || back.CommittedTxs != rep.CommittedTxs {
		t.Fatal("report did not round-trip")
	}
}

func TestRunRefusesUnfundedPopulation(t *testing.T) {
	url, stop := startNode(t, 7, 50)
	defer stop()
	// Different seed: the funded population and the driven population
	// are disjoint, which must fail fast instead of measuring noise.
	_, err := Run(context.Background(), Config{
		Target: url, Accounts: 50, Workers: 2, Rate: 50,
		Duration: time.Second, Seed: 8,
	})
	if err == nil {
		t.Fatal("run against an unfunded population succeeded")
	}
}

func TestSLOEvaluation(t *testing.T) {
	rep := &Report{
		CommittedTxPerSec: 100,
		ErrorRate:         0.02,
		Classes: []ClassReport{
			{Class: ClassTransfer, Ops: 1000, P99: 0.050},
			{Class: ClassLifecycle, Ops: 10, P99: 2.0}, // exempt from MaxP99
		},
	}
	if b := rep.checkSLO(SLO{MinTxPerSec: 50, MaxP99: 100 * time.Millisecond, MaxErrorRate: 0.05}); len(b) != 0 {
		t.Fatalf("healthy run breached: %v", b)
	}
	b := rep.checkSLO(SLO{MinTxPerSec: 200, MaxP99: 10 * time.Millisecond, MaxErrorRate: 0.01})
	if len(b) != 3 {
		t.Fatalf("want 3 breaches (throughput, p99, error rate), got %d: %v", len(b), b)
	}
}

func TestParseMix(t *testing.T) {
	m, err := ParseMix("transfers=50,reads=50")
	if err != nil || m.Transfers != 50 || m.Reads != 50 || m.Mints != 0 || m.Lifecycle != 0 {
		t.Fatalf("got %+v, %v", m, err)
	}
	if m, err := ParseMix(""); err != nil || m != DefaultMix() {
		t.Fatalf("empty mix should select the default, got %+v, %v", m, err)
	}
	for _, bad := range []string{"transfers", "transfers=x", "bogus=1", "transfers=0,reads=0"} {
		if _, err := ParseMix(bad); err == nil {
			t.Errorf("ParseMix(%q) accepted", bad)
		}
	}
}

// TestAccountsDeterministic pins the population the generator signs
// with: pds2-node -load-accounts funds market.Accounts(seed, n) and Run
// derives the same identities from (seed, n) alone, so these addresses
// must never move.
func TestAccountsDeterministic(t *testing.T) {
	want := []string{
		"798769bffcbf2efb81c085b22338d20eadf35478",
		"ca8589c1bdcc8e72cadc694ce3920b81c4359607",
		"5ed80e8f1af9d7a6e13a9c57f99baa795d172534",
	}
	for i, id := range market.Accounts(1, 3) {
		if got := id.Address().Hex(); got != want[i] {
			t.Errorf("market.Accounts(1, 3)[%d] = %s, want %s", i, got, want[i])
		}
	}
	a, b := market.Accounts(3, 10), market.Accounts(3, 10)
	for i := range a {
		if a[i].Address() != b[i].Address() {
			t.Fatal("account derivation is not deterministic")
		}
	}
	if market.Accounts(4, 1)[0].Address() == a[0].Address() {
		t.Fatal("different seeds derived the same account")
	}
	alloc := market.GenesisAlloc(3, 10, 500)
	if len(alloc) != 10 || alloc[a[0].Address()] != 500 {
		t.Fatalf("bad alloc: %d entries", len(alloc))
	}
}
