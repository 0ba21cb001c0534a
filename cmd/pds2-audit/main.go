// Command pds2-audit is the trustless third-party auditor of §II-E: it
// takes a chain export produced by a PDS² governance node (for example
// via `pds2 -export chain.json`), replays every block through the same
// validation path the authorities ran — seals, proposer rotation,
// transaction roots, gas accounting, contract execution and state roots
// — and reports the audit summary. Any tampering with the export fails
// the replay.
//
// With -from-store it audits a durable chain store directory offline
// instead: the store's newest snapshot is integrity-checked against its
// head block's sealed state root, the log tail is re-validated block by
// block, and nothing is written — a node need not be running.
//
// Usage:
//
//	pds2-audit [-log-level info,ledger=debug] chain.json
//	pds2-audit -from-store /var/lib/pds2
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"pds2/internal/chainstore"
	"pds2/internal/ledger"
	"pds2/internal/market"
	"pds2/internal/policy"
	"pds2/internal/telemetry"
)

func main() {
	logSpec := flag.String("log-level", "off", "structured-log spec mirrored to stderr, e.g. info,ledger=debug")
	fromStore := flag.String("from-store", "", "audit a durable chain store directory instead of an export file")
	flag.Parse()
	if err := telemetry.SetLogSpec(*logSpec); err != nil {
		fatalf("bad -log-level: %v", err)
	}
	telemetry.DefaultLog().SetOutput(os.Stderr)
	// The closing throughput line reads the import's own histograms.
	telemetry.Enable()

	// The auditor runs the exact platform contract code the network ran.
	rt, err := market.NewRuntime()
	if err != nil {
		fatalf("register code: %v", err)
	}

	var chain *ledger.Chain
	var took time.Duration
	switch {
	case *fromStore != "":
		if flag.NArg() != 0 {
			fmt.Fprintln(os.Stderr, "usage: pds2-audit -from-store <dir>")
			os.Exit(2)
		}
		store, err := chainstore.Open(*fromStore, nil)
		if err != nil {
			fatalf("open store: %v", err)
		}
		defer store.Close()
		if n := store.RecoveredBytes(); n > 0 {
			fmt.Printf("  note: truncated %d bytes of torn tail during open\n", n)
		}
		start := time.Now()
		chain, err = store.VerifyChain(rt)
		took = time.Since(start)
		if err != nil {
			fmt.Printf("AUDIT FAILED: %v\n", err)
			os.Exit(1)
		}
		stats := store.Stats()
		fmt.Println("AUDIT PASSED: snapshot verified, every tail block re-validated")
		fmt.Printf("  store       %s (%d segments, %d frames, %d snapshots)\n",
			stats.Dir, stats.Segments, stats.Frames, stats.Snapshots)
		if base := chain.Base(); base > 0 {
			fmt.Printf("  snapshot    height %d (state root checked against sealed header)\n", base)
		}
	default:
		if flag.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "usage: pds2-audit <chain-export.json>")
			os.Exit(2)
		}
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fatalf("open export: %v", err)
		}
		defer f.Close()
		start := time.Now()
		chain, err = ledger.Replay(f, rt)
		took = time.Since(start)
		if err != nil {
			fmt.Printf("AUDIT FAILED: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("AUDIT PASSED: every block re-validated from genesis")
	}

	fmt.Printf("  height      %d\n", chain.Height())
	fmt.Printf("  state root  %s\n", chain.State().Root())
	events := chain.Events("")
	fmt.Printf("  audit log   %d events\n", len(events))
	byTopic := map[string]int{}
	for _, ev := range events {
		byTopic[ev.Topic]++
	}
	for _, topic := range []string{
		market.EvActorRegistered, market.EvDataRegistered, market.EvWorkloadRegistered,
		market.EvExecutorRegistered, market.EvDataContributed, market.EvWorkloadStarted,
		market.EvResultSubmitted, market.EvRewardPaid, market.EvWorkloadFinalized,
		market.EvWorkloadDisputed, market.EvWorkloadCancelled,
		policy.EvPolicySet, policy.EvPolicyDecision,
	} {
		if n := byTopic[topic]; n > 0 {
			fmt.Printf("    %-20s %d\n", topic, n)
		}
	}

	// Usage-control replay: re-derive every recorded policy decision from
	// the PolicySet history and the decision log itself, and check no
	// settled workload consumed a policy-bearing dataset without an
	// allowed admission decision. This is the trustless counterpart of
	// the in-process enforcement — a colluding authority set cannot fake
	// a compliant decision log without failing this replay.
	rep := policy.ReplayDecisions(events)
	violations := append(append([]string{}, rep.Mismatches...), rep.UnexplainedDenies...)
	violations = append(violations, market.VerifyPolicySettlements(events)...)
	if rep.Decisions > 0 || rep.PoliciesSet > 0 || len(violations) > 0 {
		fmt.Printf("  usage control  %d policies set, %d decisions (%d allow / %d deny)\n",
			rep.PoliciesSet, rep.Decisions, rep.Allows, rep.Denies)
	}
	if len(violations) > 0 {
		fmt.Printf("POLICY AUDIT FAILED: %d violations\n", len(violations))
		for _, v := range violations {
			fmt.Printf("    %s\n", v)
		}
		os.Exit(1)
	}
	if rep.Decisions > 0 {
		fmt.Println("  policy replay  every decision re-derived identically; settlements covered by allowed admissions")
	}
	printReplayRate(chain, took)
}

// printReplayRate closes the report with how fast the replay went and
// what share of it the executing goroutine stood waiting for a block's
// seal and signature checks: a high share means the replay is bound by
// ed25519 and more cores would shorten it, a low one that verification
// ran far enough ahead never to be what the executor waited for.
func printReplayRate(chain *ledger.Chain, took time.Duration) {
	var blocks, txs int
	for h := chain.Base() + 1; h <= chain.Height(); h++ {
		if b, err := chain.BlockAt(h); err == nil {
			blocks++
			txs += len(b.Txs)
		}
	}
	wait, _ := telemetry.Default().Snapshot().Get("ledger.import.verify_wait_seconds")
	secs := took.Seconds()
	fmt.Printf("replayed %d blocks / %d txs in %.3f s (%.0f tx/s, verify-wait %.0f %%)\n",
		blocks, txs, secs, float64(txs)/secs, 100*wait.Sum/secs)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "pds2-audit: "+format+"\n", args...)
	os.Exit(1)
}
