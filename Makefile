GO ?= go

.PHONY: build test race race-core vet loc bench proptest fuzz covgate load-smoke bench-pair bench-module diag-selftest pprof-smoke policy-smoke vm-smoke ci-fast ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# race-core runs the race detector over just the packages that exercise
# block execution and the seal path (including the sealer + follower +
# lock-free producers + unlocked State readers stress test,
# ledger.TestStateRootConcurrentReaders: primitive readers against a
# writer that transfers, reverts and calls Root(), which mutates the
# cached commitment; the gas-overflow seal tests in both packages; and
# the streamed-import tests — error order, mid-stream rejection with its
# goroutine count, source errors, the read-ahead bound — in ledger and
# chainstore, whose producer, workers and executor share block handles)
# plus the api test that a client which stops reading a large response
# cannot hold up a seal — the fast feedback loop while iterating on state,
# mempool or seal-path code, and the fail-fast first stage of ci's race
# coverage.
race-core:
	$(GO) test -race ./internal/ledger/... ./internal/market/... ./internal/chainstore/...
	$(GO) test -race -count=1 ./internal/api/ -run 'TestSlowReaderDoesNotPinSeal|TestHostDurableLifecycle'

vet:
	$(GO) vet ./...

# loc prints non-test Go line counts for the directories ROADMAP item 5
# ("one of each") measures; quote it for parent and change when a PR
# claims a deletion.
loc:
	./scripts/loc.sh

bench:
	$(GO) test -run NONE -bench . -benchmem ./...

# proptest runs the fixed-seed property-harness smoke: deterministic
# randomized histories checked against the global ledger invariants and
# the six-row differential replay oracle. Reproduce a failure with
# PDS2_PROPTEST_SEED=<seed> PDS2_PROPTEST_OPS=<ops> (see README).
proptest:
	$(GO) test ./internal/proptest/ -count=1

# fuzz gives each native fuzz target a short randomized budget on top
# of its checked-in seed corpus. Go allows one -fuzz pattern per
# invocation, hence one line per target.
fuzz:
	$(GO) test ./internal/ledger/ -run NONE -fuzz FuzzTxDecode -fuzztime 5s
	$(GO) test ./internal/ledger/ -run NONE -fuzz FuzzBlockImport -fuzztime 5s
	$(GO) test ./internal/ledger/ -run NONE -fuzz FuzzStateRoot -fuzztime 5s
	$(GO) test ./internal/contract/ -run NONE -fuzz FuzzEncoderRoundTrip -fuzztime 5s
	$(GO) test ./internal/vm/ -run NONE -fuzz FuzzCompile -fuzztime 5s
	$(GO) test ./internal/vm/ -run NONE -fuzz FuzzVMExecute -fuzztime 5s

# covgate fails if ledger/contract/token statement coverage drops below
# the recorded floors (see scripts/covgate.sh to ratchet them up).
covgate:
	./scripts/covgate.sh

# load-smoke self-hosts a node and drives it over real HTTP with the
# open-loop load harness for 30 seconds, failing on any SLO breach
# (throughput floor, p99 ceiling, error rate). The report lands outside
# the tree so a smoke run never leaves a report in the checkout;
# full-scale baselines are produced explicitly with `go run ./cmd/pds2-load`.
load-smoke:
	$(GO) run ./cmd/pds2-load -accounts 5000 -workers 8 -rate 300 -duration 30s \
		-slo-tx-per-sec 50 -slo-p99-ms 250 -slo-error-rate 0.02 \
		-out $${TMPDIR:-/tmp}/pds2-load-smoke

# bench-pair is the pairing rule as a command: PAIRS alternating runs of
# the frozen benchmark on PARENT (a `git archive` of that ref) and on the
# working tree, then the harness's own `compare` — one verdict table. Run
# it on an otherwise idle box. BENCH_ARGS narrows it, e.g.
# `make bench-pair PAIRS=5 BENCH_ARGS='-workload transfer_large_state'`.
PARENT ?= HEAD~1
PAIRS ?= 10
BENCH_ARGS ?= -workload all
bench-pair:
	./scripts/abpair.sh $(PARENT) $(PAIRS) $(BENCH_ARGS)

# bench-module vets and tests the nested benchmark module (its own
# go.mod, `replace pds2 => ../`) — what the root TestBenchmarkModule
# runs inside `go test ./...`, as a target of its own.
bench-module:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# diag-selftest spins up a node with pprof, metrics history and the
# runtime sampler enabled, drives transfer traffic, captures
# a flight-recorder bundle over the real HTTP API and asserts it is
# complete: every artifact present and parseable, a dense
# mempool-depth history series, and CPU samples labeled by component.
diag-selftest:
	$(GO) run ./cmd/pds2 diag -self-test

# policy-smoke runs the usage-control end-to-end: a mixed market where
# policy-bearing workloads settle, a forbidden dataset is denied at the
# match layer, every decision lands on-chain, and the offline replay
# re-derives each one — plus the three-layer denial test and the API
# round trips for the /v1/datasets + /v1/policies surface.
policy-smoke:
	$(GO) test -count=1 ./internal/market/ -run 'TestPolicySmokeLifecycle|TestPolicyDeniedAtAllThreeLayers'
	$(GO) test -count=1 ./internal/api/ -run 'TestDatasetAPILifecycle|TestPolicyDenialEnvelope|TestPolicyDecisionsPaginationWalk'

# vm-smoke is the bytecode-engine gate: the compiler/VM differential
# suite (tree-walking oracle vs gas-metered VM over hand-written and
# seeded random programs), the built-in-policy equivalence acceptance
# test — the DSL re-expression of the declarative engine must produce
# bit-identical decision records, events and consumption through a full
# settled lifecycle — the VM three-layer denial and deploy-gate tests,
# and the proptest replay matrix (the vm rows re-execute every deployed
# program under the reference interpreter), all under -race.
vm-smoke:
	$(GO) test -race -count=1 ./internal/vm/ ./internal/semantic/
	$(GO) test -race -count=1 ./internal/market/ -run 'TestVMBuiltinPolicyEquivalence|TestVMPolicy'
	$(GO) test -race -count=1 ./internal/proptest/ -run 'TestVMPolicyReplay'
	$(GO) test -race -count=1 ./internal/api/ -run 'TestDeployContractAPI'

# pprof-smoke exercises the profiling and history endpoints (guard
# behaviour, gzip integrity, history windowing) and the diag bundle
# capture/verify paths under the race detector.
pprof-smoke:
	$(GO) test -race -count=1 ./internal/api/ -run 'TestPprof|TestMetricsHistory|TestMetricsAndTraceDisabled'
	$(GO) test -race -count=1 ./internal/diag/

# ci-fast is the inner-loop gate (target: under two minutes): static
# checks, the full build, the race pass over the execution and seal-path
# packages, the fixed-seed property-harness smoke with differential
# replay, the usage-control policy smoke (three-layer enforcement,
# on-chain decision events, offline replay, API round trips) and the
# bytecode-VM smoke (differential oracle agreement, built-in-policy
# bit-identical equivalence, deploy gates) under -race, and
# TestBenchmarkModule, which vets and tests the nested benchmark module
# against this tree.
ci-fast: vet build
	$(GO) test -count=1 -run TestBenchmarkModule .
	$(MAKE) race-core
	$(MAKE) proptest
	$(MAKE) policy-smoke
	$(MAKE) vm-smoke

# ci is the documented pre-PR gate: ci-fast, then the full race-enabled
# test suite (including the telemetry trace/log/health tests), a
# single-iteration smoke run of the ledger block-pipeline and
# structured-log benchmarks, the distributed-tracing self-test — the
# two-node stitching demo must verify end to end — a seeded chaos smoke
# (the quick E15 subset drives the full workload lifecycle through
# fault-injected client and server and must converge), a short
# randomized pass over each fuzz target, the pprof/history endpoint
# smoke under -race, the diag flight-recorder self-test (capture a
# bundle from a live node and assert every artifact is present,
# parseable and component-labeled), a 30-second open-loop load smoke
# against a self-hosted node (SLO-gated), and the coverage ratchet.
# (Benchmark regressions are judged by `make bench-pair`, which needs an
# idle box and minutes, so it is not in ci.)
ci: ci-fast
	$(GO) test -race ./...
	$(GO) test -run NONE -bench 'BenchmarkImportBlock|BenchmarkMempool|BenchmarkLedger|BenchmarkLog' -benchtime=1x .
	$(GO) run ./cmd/pds2 trace -self-test
	$(GO) run ./cmd/pds2-experiments -quick -telemetry=false -run E15
	$(MAKE) fuzz
	$(MAKE) pprof-smoke
	$(MAKE) diag-selftest
	$(MAKE) load-smoke
	$(MAKE) covgate
