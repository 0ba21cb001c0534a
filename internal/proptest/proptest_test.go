package proptest

import (
	"bytes"
	"errors"
	"os"
	"strconv"
	"testing"

	"pds2/internal/faults"
	"pds2/internal/ledger"
	"pds2/internal/policy"
)

// smokeOps keeps the default test-size plans inside a CI smoke budget:
// big enough to cross dozens of sealed blocks and one full lifecycle,
// small enough to run in seconds.
const smokeOps = 80

// TestProptestDeterminism runs the same config twice and demands
// byte-for-byte identical histories — the reproducibility guarantee
// every failing seed relies on.
func TestProptestDeterminism(t *testing.T) {
	cfg := Config{Seed: 42, Ops: smokeOps}
	plan1 := Plan(cfg)
	plan2 := Plan(cfg)
	if len(plan1) != len(plan2) {
		t.Fatalf("plan lengths differ: %d vs %d", len(plan1), len(plan2))
	}
	for i := range plan1 {
		if plan1[i] != plan2[i] {
			t.Fatalf("plan op %d differs: %s vs %s", i, plan1[i], plan2[i])
		}
	}
	res1, err := Run(cfg, plan1)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := Run(cfg, plan2)
	if err != nil {
		t.Fatal(err)
	}
	fp1, fp2 := res1.History.Fingerprint(), res2.History.Fingerprint()
	if !bytes.Equal(fp1, fp2) {
		t.Fatalf("histories diverged:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", fp1, fp2)
	}
	if len(res1.History.Blocks) == 0 {
		t.Fatal("run sealed no blocks")
	}
}

// TestProptestSmoke sweeps a handful of seeds: every invariant must
// hold and the three replay modes must agree with the live chain.
func TestProptestSmoke(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		res, err := RunSeed(seed, smokeOps)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Failed() {
			report := MinimizeFailure(Config{Seed: seed, Ops: smokeOps})
			t.Fatalf("seed %d violated invariants:\n%s", seed, report)
		}
		data, err := ExportMarket(res.Market)
		if err != nil {
			t.Fatalf("seed %d export: %v", seed, err)
		}
		if err := DifferentialCheck(RunReplayModes(data), res.Market); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestVMPolicyReplay pins the VM leg of the differential oracle: a
// seeded run must actually deploy compiled policy programs and log
// decisions for program-governed datasets, and the resulting chain must
// survive every replay row — in particular the vm rows, which
// re-execute every deployed program with the reference tree-walking
// evaluator and demand identical receipts, events and roots.
func TestVMPolicyReplay(t *testing.T) {
	var programs, decisions int
	for _, seed := range []uint64{5, 6, 8, 9} {
		res, err := RunSeed(seed, smokeOps)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Failed() {
			t.Fatalf("seed %d violated invariants:\n%v", seed, res.History.Violations)
		}
		programmed := make(map[string]bool)
		for _, ev := range res.Market.Chain.Events(policy.EvPolicyCode) {
			dataID, _, _, err := policy.DecodePolicySet(ev.Data)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			programmed[dataID.Hex()] = true
			programs++
		}
		for _, ev := range res.Market.Chain.Events(policy.EvPolicyDecision) {
			rec, err := policy.DecodeDecisionRecord(ev.Data)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if programmed[rec.DataID.Hex()] {
				decisions++
			}
		}
		data, err := ExportMarket(res.Market)
		if err != nil {
			t.Fatalf("seed %d export: %v", seed, err)
		}
		if err := DifferentialCheck(RunReplayModes(data), res.Market); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	if programs == 0 || decisions == 0 {
		t.Fatalf("swept seeds deployed %d programs with %d program decisions; the vm replay mode was never exercised", programs, decisions)
	}
}

// TestProptestUnderFaults churns the mempool under the kitchen-sink
// fault schedule: dropped submissions, clock-skewed seals. Invariants
// and replayability must survive.
func TestProptestUnderFaults(t *testing.T) {
	sched := faults.Everything(99)
	cfg := Config{Seed: 7, Ops: smokeOps, Schedule: &sched}
	res, err := Run(cfg, Plan(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed() {
		t.Fatalf("invariants violated under faults:\n%v", res.History.Violations)
	}
	data, err := ExportMarket(res.Market)
	if err != nil {
		t.Fatal(err)
	}
	if err := DifferentialCheck(RunReplayModes(data), res.Market); err != nil {
		t.Fatal(err)
	}
}

// TestCorruptBlocksDetected sweeps every export-level corruption kind
// and the three forged-block kinds over a generated chain: every replay
// mode must reject every variant.
func TestCorruptBlocksDetected(t *testing.T) {
	res, err := RunSeed(11, smokeOps)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed() {
		t.Fatalf("baseline run violated invariants:\n%v", res.History.Violations)
	}
	data, err := ExportMarket(res.Market)
	if err != nil {
		t.Fatal(err)
	}
	// The clean export must pass before any corrupted variant may fail.
	if err := DifferentialCheck(RunReplayModes(data), res.Market); err != nil {
		t.Fatal(err)
	}
	for _, kind := range Corruptions {
		for seed := uint64(0); seed < 3; seed++ {
			bad, err := CorruptExport(data, kind, seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", kind, seed, err)
			}
			if err := CheckDetection(RunReplayModes(bad)); err != nil {
				t.Errorf("%s seed %d: %v", kind, seed, err)
			}
		}
	}
	// Malicious-authority forgeries: valid seals, hostile payloads. The
	// two root forgeries must die at the recomputed state root, nowhere
	// earlier, and the unverified signature at every importer's own check.
	flatForgery, err := ForgeFlatRootBlock(res.Market, res.Authority, res.Sender)
	if err != nil {
		t.Fatal(err)
	}
	for _, fc := range []struct {
		name    string
		block   *ledger.Block
		wantErr error // nil: any rejection
	}{
		{"forged-skipped-nonce", ForgeSkippedNonceBlock(res.Market, res.Authority, res.Sender), nil},
		{"forged-balance-claim", ForgeBalanceClaimBlock(res.Market, res.Authority, res.Sender), ledger.ErrBadStateRoot},
		{"forged-flat-root", flatForgery, ledger.ErrBadStateRoot},
		{"forged-unverified-sig", ForgeUnverifiedSigBlock(res.Market, res.Authority, res.Sender), ledger.ErrTxSignature},
	} {
		bad, err := AppendForgedBlock(data, fc.block)
		if err != nil {
			t.Fatal(err)
		}
		results := RunReplayModes(bad)
		if err := CheckDetection(results); err != nil {
			t.Errorf("%s: %v", fc.name, err)
		}
		for _, r := range results {
			if fc.wantErr != nil && !errors.Is(r.Err, fc.wantErr) {
				t.Errorf("%s: mode %s rejected with %v, want %v", fc.name, r.Mode, r.Err, fc.wantErr)
			}
		}
	}
}

// TestShrinkMinimizes plants a synthetic failure (an op kind the oracle
// flags) in a large plan and checks the shrinker reduces the plan to
// essentially just the trigger while preserving determinism.
func TestShrinkMinimizes(t *testing.T) {
	// Synthetic trigger: the oracle fails iff the plan still contains an
	// overdraft op following at least one transfer. Cheap to evaluate,
	// with a known 2-op minimum.
	oracle := func(_ Config, p []Op) bool {
		seenTransfer := false
		for _, op := range p {
			if op.Kind == OpTransfer {
				seenTransfer = true
			}
			if op.Kind == OpOverdraft && seenTransfer {
				return true
			}
		}
		return false
	}
	// Scan seeds for a plan containing the trigger; the scan is
	// deterministic, so the test always exercises the same plan.
	var (
		cfg  Config
		plan []Op
	)
	for seed := uint64(1); ; seed++ {
		cfg = Config{Seed: seed, Ops: 64}
		plan = Plan(cfg)
		if oracle(cfg, plan) {
			break
		}
		if seed > 100 {
			t.Fatal("no seed in 1..100 produced a transfer→overdraft pair")
		}
	}
	minPlan, runs := Shrink(cfg, plan, oracle)
	if !oracle(cfg, minPlan) {
		t.Fatal("shrinker returned a passing plan")
	}
	if len(minPlan) != 2 {
		t.Fatalf("expected 2-op minimum, got %d ops (in %d runs): %v", len(minPlan), runs, minPlan)
	}
	if minPlan[0].Kind != OpTransfer || minPlan[1].Kind != OpOverdraft {
		t.Fatalf("wrong minimum: %v", minPlan)
	}
}

// TestProptestSeedRepro replays a failing seed from the environment —
// the reproduction entry point printed by FailureReport. Without the
// variable it validates the default seed end to end.
func TestProptestSeedRepro(t *testing.T) {
	seed, ops := uint64(1), smokeOps
	if v := os.Getenv("PDS2_PROPTEST_SEED"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			t.Fatalf("PDS2_PROPTEST_SEED: %v", err)
		}
		seed = n
	}
	if v := os.Getenv("PDS2_PROPTEST_OPS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			t.Fatalf("PDS2_PROPTEST_OPS: %v", err)
		}
		ops = n
	}
	if report := MinimizeFailure(Config{Seed: seed, Ops: ops}); report != nil {
		t.Fatalf("\n%s", report)
	}
}

// TestChaosChainReplayable is the regression pinning that the E15 chaos
// lifecycle's chain — sealed under drops, 5xxs, torn responses and
// clock skew — replays identically through all three modes. No
// invariant violations were uncovered during this harness's
// development, so per the issue this stands as the three-mode agreement
// regression on the chaos chain.
func TestChaosChainReplayable(t *testing.T) {
	report, err := faults.RunChaosLifecycle(faults.ChaosConfig{
		Seed:     1,
		Schedule: faults.Everything(1),
	})
	if err != nil {
		t.Fatalf("chaos lifecycle did not converge: %v", err)
	}
	data, err := ExportMarket(report.Market)
	if err != nil {
		t.Fatal(err)
	}
	if err := DifferentialCheck(RunReplayModes(data), report.Market); err != nil {
		t.Fatalf("chaos chain diverged across replay modes: %v", err)
	}
}
