// Command benchmark is the PDS² node benchmark: four workloads that load
// different layers of the node, end-to-end numbers timed from the instant
// each operation was due, and — in a traced run — a per-layer budget.
// README.md documents the workloads, every metric and how to run it.
//
// Usage (from this directory, or through run.sh from the checkout root):
//
//	go run . -workload <name|all> -seed <n> [-seconds 18] [-trace 0|1] [-out file] [-sweep]
//	go run . compare <A.json...> -- <B.json...>
//	go run . spread <summary.json...>
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// defaultSeconds is the frozen run length (BENCHMARK.json run_seconds).
const defaultSeconds = 18

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		case "spread":
			os.Exit(spreadMain(os.Args[2:]))
		}
	}
	var (
		workload = flag.String("workload", "", "workload name, or \"all\" for every workload untraced then traced")
		seed     = flag.Uint64("seed", 1, "seed of every generated input")
		seconds  = flag.Float64("seconds", defaultSeconds, "measured run length")
		trace    = flag.String("trace", "0", "1 for the traced run (per-layer metrics), 0 for end-to-end")
		out      = flag.String("out", "", "write the JSON summary here")
		spans    = flag.String("spans", "", "traced run: write the recorded spans here as JSON lines")
		sweep    = flag.Bool("sweep", false, "step the steady rate over the ladder and report the saturation knee")
		scratch  = flag.String("scratch", "", "directory for the run's stores (default .bench_build/tmp under the working directory)")
	)
	flag.Parse()
	traced, err := strconv.ParseBool(*trace)
	if err != nil || *workload == "" || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: benchmark -workload <name|all> -seed <n> [-seconds s] [-trace 0|1] [-out file] [-sweep]")
		fmt.Fprintln(os.Stderr, "       benchmark compare <A.json...> -- <B.json...>")
		fmt.Fprintln(os.Stderr, "       benchmark spread <summary.json...>")
		fmt.Fprintln(os.Stderr, "workloads:", strings.Join(workloadNames, ", "))
		os.Exit(2)
	}
	dir := *scratch
	if dir == "" {
		dir = filepath.Join(".bench_build", "tmp")
	}
	dir = filepath.Join(dir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		os.Exit(fail(err))
	}
	code := run(runConfig{
		workload: *workload, seed: *seed, seconds: *seconds, traced: traced,
		senders: runtime.NumCPU(), scratch: dir, spansOut: *spans,
	}, *out, *sweep)
	os.RemoveAll(dir)
	os.Exit(code)
}

// fail reports an error and returns the exit code for it.
func fail(err error) int {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	return 1
}

// run dispatches one invocation and returns the exit code: 0 when every
// run was correct, 1 on a failed check or an error.
func run(cfg runConfig, out string, sweep bool) int {
	switch {
	case sweep:
		return sweepMain(cfg, out)
	case cfg.workload == "all":
		return allMain(cfg, out)
	}
	res, err := runWorkload(cfg)
	if err != nil {
		return fail(err)
	}
	res.print(os.Stdout)
	if out != "" {
		if err := writeSummary(out, &summary{Runs: []*result{res}}); err != nil {
			return fail(err)
		}
	}
	line, err := res.contractLine()
	if err != nil {
		return fail(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runWorkload runs one workload once.
func runWorkload(cfg runConfig) (*result, error) {
	var res *result
	var err error
	switch cfg.workload {
	case wlTransfer, wlRead, wlMixed:
		res, err = runHTTP(cfg)
	case wlLifecycle:
		res, err = runLifecycle(cfg)
	default:
		return nil, fmt.Errorf("unknown workload %q (have %s)", cfg.workload, strings.Join(workloadNames, ", "))
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	if cfg.spansOut != "" && cfg.traced {
		if err := writeSpans(cfg.spansOut, res.spans); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
	}
	return res, nil
}

// box describes the machine a summary was measured on.
type box struct {
	CPUs      int    `json:"cpus"`
	GoVersion string `json:"go_version"`
	OS        string `json:"os"`
	Arch      string `json:"arch"`
	Kernel    string `json:"kernel,omitempty"`
}

func describeBox() box {
	b := box{CPUs: runtime.NumCPU(), GoVersion: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH}
	if rel, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		b.Kernel = strings.TrimSpace(string(rel))
	}
	return b
}

// summary is the -out file. Claim is last and always null: the
// benchmark measures, it claims no gain.
type summary struct {
	Schema   string             `json:"schema"`
	Box      box                `json:"box"`
	Runs     []*result          `json:"runs"`
	Overhead map[string]float64 `json:"trace.overhead_pct,omitempty"`
	Sweep    []sweepStep        `json:"sweep,omitempty"`
	Claim    *string            `json:"claim"`
}

func writeSummary(path string, s *summary) error {
	s.Schema, s.Box = "pds2/benchmark/v1", describeBox()
	data, err := json.MarshalIndent(s, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readSummary(path string) (*summary, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s summary
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if s.Schema != "pds2/benchmark/v1" {
		return nil, fmt.Errorf("%s: not a benchmark summary (schema %q)", path, s.Schema)
	}
	return &s, nil
}

// headline is the number trace overhead is judged on — the workload's
// saturation rate, or lifecycle latency where there is none — and
// whether higher is better. Both kinds of run compute it.
func headline(workload string) (metric string, higherBetter bool) {
	switch workload {
	case wlRead:
		return "read_per_s", true
	case wlLifecycle:
		return "lifecycle_ms_p50", false
	}
	return "commit_tx_per_s", true
}

// overheadPct is how much worse the traced runs' median headline number
// is than the untraced runs', in percent (negative: the traced runs
// were better, i.e. the difference is noise).
func overheadPct(workload string, untraced, traced []*result) float64 {
	metric, higherBetter := headline(workload)
	u, t := median(values(untraced, metric)), median(values(traced, metric))
	if u == 0 {
		return 0
	}
	if higherBetter {
		return (u - t) / u * 100
	}
	return (t - u) / u * 100
}

// allMain runs every workload untraced and then traced, prints every
// metric and the tracing overhead, and writes the summary.
func allMain(cfg runConfig, out string) int {
	s := &summary{Overhead: make(map[string]float64)}
	code := 0
	for _, name := range workloadNames {
		var pair [2]*result
		for i, traced := range []bool{false, true} {
			c := cfg
			c.workload, c.traced = name, traced
			if c.spansOut != "" {
				c.spansOut = fmt.Sprintf("%s.%s", cfg.spansOut, name)
			}
			res, err := runWorkload(c)
			if err != nil {
				return fail(err)
			}
			res.print(os.Stdout)
			if !res.Correct {
				code = 1
			}
			pair[i] = res
			s.Runs = append(s.Runs, res)
		}
		s.Overhead[name] = overheadPct(name, pair[:1], pair[1:])
		fmt.Printf("  %-40s %14.4f %%\n", "trace.overhead_pct", s.Overhead[name])
	}
	if out == "" {
		return code
	}
	if err := writeSummary(out, s); err != nil {
		return fail(err)
	}
	return code
}
