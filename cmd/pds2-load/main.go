// Command pds2-load is the open-loop load harness for a PDS² governance
// node. It derives a deterministic population of simulated accounts,
// partitions them across workers, and offers a configurable traffic mix
// — native transfers, ERC-20 mints, account reads and workload
// lifecycles — against the node's real HTTP API at a fixed arrival
// rate. Committed throughput is read from the node's ledger counters,
// per-class latency (p50/p95/p99) from the generator's telemetry
// histograms, and the run is judged against SLO thresholds. Results are
// written as LOAD_<date>.json.
//
// With no -target the harness self-hosts: it starts an in-process node
// (optionally durable, with -data-dir) on a loopback listener with the
// whole population funded at genesis, and drives it over real HTTP —
// the one-command million-user benchmark. Against an external node,
// start it with matching funding first:
//
//	pds2-node -load-accounts 100000 -load-seed 1 &
//	pds2-load -target http://localhost:8547 -accounts 100000 -seed 1
//
// Exit status: 0 on pass, 1 on SLO breach, 2 on usage or setup failure.
//
// Usage:
//
//	pds2-load [-accounts 100000] [-seed 1] [-workers 16] [-rate 400]
//	          [-duration 30s] [-mix transfers=70,mints=10,reads=15,lifecycle=2,policy=3]
//	          [-slo-tx-per-sec N] [-slo-p99-ms N] [-slo-error-rate F]
//	          [-out .] [-target URL]
//	          [-block-ms 250] [-block-gas 120000000] [-mempool 200000]
//	          [-data-dir DIR] [-snapshot-every 1000]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"pds2/internal/api"
	"pds2/internal/loadgen"
	"pds2/internal/market"
	"pds2/internal/telemetry"
)

func main() {
	var (
		target   = flag.String("target", "", "base URL of the node under test (empty self-hosts an in-process node)")
		accounts = flag.Int("accounts", 100_000, "simulated account population")
		seed     = flag.Uint64("seed", 1, "seed deriving the population and all generator randomness")
		workers  = flag.Int("workers", 16, "concurrent workers (accounts are partitioned across them)")
		rate     = flag.Float64("rate", 400, "offered load, operations per second")
		duration = flag.Duration("duration", 30*time.Second, "measured-phase duration")
		mixSpec  = flag.String("mix", "", "traffic mix, e.g. transfers=70,mints=10,reads=15,lifecycle=2,policy=3")
		fundEach = flag.Uint64("fund-each", 1_000_000, "genesis balance per simulated account")
		out      = flag.String("out", ".", "directory for the LOAD_<date>.json report")

		sloTxRate = flag.Float64("slo-tx-per-sec", 0, "SLO: committed-transaction throughput floor (0 disables)")
		sloP99    = flag.Float64("slo-p99-ms", 0, "SLO: p99 latency ceiling for submit/read classes, ms (0 disables)")
		sloErrs   = flag.Float64("slo-error-rate", 0, "SLO: error-rate ceiling, 0..1 (0 disables)")

		// Self-host knobs (ignored with -target).
		blockMS   = flag.Int("block-ms", 250, "self-host: auto-seal interval in milliseconds")
		blockGas  = flag.Uint64("block-gas", 120_000_000, "self-host: per-block gas limit (0 selects the chain default)")
		mempool   = flag.Int("mempool", 200_000, "self-host: mempool capacity")
		dataDir   = flag.String("data-dir", "", "self-host: durable chain store directory (empty runs in memory)")
		snapEvery = flag.Uint64("snapshot-every", 1000, "self-host: snapshot every N blocks (with -data-dir)")
	)
	flag.Parse()
	telemetry.Enable()
	telemetry.DefaultLog().SetOutput(os.Stderr)

	mix, err := loadgen.ParseMix(*mixSpec)
	if err != nil {
		fatalf("%v", err)
	}

	ctx := context.Background()
	baseURL := *target
	if baseURL == "" {
		log.Printf("self-host: funding %d accounts at genesis", *accounts)
		host, err := api.StartHost(api.HostConfig{
			Market: market.Config{
				Seed:          *seed,
				GenesisAlloc:  loadgen.GenesisAlloc(*seed, *accounts, *fundEach),
				MempoolSize:   *mempool,
				BlockGasLimit: *blockGas,
			},
			DataDir:       *dataDir,
			SnapshotEvery: *snapEvery,
			Listen:        "127.0.0.1:0",
			SealInterval:  time.Duration(*blockMS) * time.Millisecond,
			Logf:          log.Printf,
		})
		if err != nil {
			fatalf("self-host node: %v", err)
		}
		defer func() {
			shutCtx, done := context.WithTimeout(context.Background(), 2*time.Second)
			defer done()
			_ = host.Close(shutCtx) // the report is already written; nothing to do about a late close error
		}()
		baseURL = host.URL
	}

	rep, err := loadgen.Run(ctx, loadgen.Config{
		Target:   baseURL,
		Accounts: *accounts,
		Workers:  *workers,
		Rate:     *rate,
		Duration: *duration,
		Mix:      mix,
		Seed:     *seed,
		FundEach: *fundEach,
		SLO: loadgen.SLO{
			MinTxPerSec:  *sloTxRate,
			MaxP99:       time.Duration(*sloP99 * float64(time.Millisecond)),
			MaxErrorRate: *sloErrs,
		},
		Logf: log.Printf,
	})
	if err != nil {
		fatalf("%v", err)
	}

	path, err := rep.WriteFile(*out)
	if err != nil {
		fatalf("write report: %v", err)
	}

	fmt.Printf("pds2-load: %d accounts, %d workers, %.0f ops/s offered for %.1fs against %s\n",
		rep.Accounts, rep.Workers, rep.OfferedRate, rep.DurationSec, rep.Target)
	fmt.Printf("  committed   %d txs (%.1f tx/s) over %d blocks\n", rep.CommittedTxs, rep.CommittedTxPerSec, rep.Blocks)
	fmt.Printf("  offered     %d ops, %d errors (%.2f%%), %d shed\n", rep.Ops, rep.Errors, rep.ErrorRate*100, rep.Shed)
	for _, c := range rep.Classes {
		if c.Ops == 0 {
			continue
		}
		fmt.Printf("  %-10s %6d ops  p50 %7.2fms  p95 %7.2fms  p99 %7.2fms  max %7.2fms\n",
			c.Class, c.Ops, c.P50*1e3, c.P95*1e3, c.P99*1e3, c.Max*1e3)
	}
	if rep.Runtime.HeapInusePeakBytes > 0 {
		fmt.Printf("  runtime     (%s) gc pause p99 %.2fms, peak heap %.1f MiB, peak goroutines %d\n",
			rep.Runtime.Source, rep.Runtime.GCPauseP99Seconds*1e3,
			float64(rep.Runtime.HeapInusePeakBytes)/(1<<20), rep.Runtime.GoroutinesPeak)
	}
	if rep.Build.GitCommit != "" {
		fmt.Printf("  commit      %s\n", rep.Build.GitCommit)
	}
	fmt.Printf("  report      %s\n", path)

	if len(rep.Breaches) > 0 {
		fmt.Println("SLO BREACHED:")
		for _, b := range rep.Breaches {
			fmt.Printf("  - %s\n", b)
		}
		os.Exit(1)
	}
	fmt.Println("SLO PASSED")
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "pds2-load: "+format+"\n", args...)
	os.Exit(2)
}
