package vm

import (
	"reflect"
	"testing"

	"pds2/internal/proptest/refinterp"
	"pds2/internal/semantic"
)

// benchSrc is a dispatch-heavy but host-light program: arithmetic,
// comparisons, short-circuit logic and a 32-iteration loop, with a
// couple of state writes so host calls are represented without
// dominating. ~600 dispatched opcodes per execution.
const benchSrc = `
	let n = 0
	let s = "c:" + class
	for i = 1 to 32 {
		n = n + i * 2 - 1
		if i % 4 == 0 and n > 10 { n = n - 1 }
	}
	store("n", n)
	if n >= 0 or s contains "train" { allow }
	deny "bench" ""`

// BenchmarkVMDispatch measures the bytecode dispatch loop. Root-checked:
// every iteration's outcome is compared against the reference
// interpreter's verdict and final state captured before the loop — a
// wrong result fails the benchmark rather than timing garbage.
func BenchmarkVMDispatch(b *testing.B) {
	prog := semantic.MustParseProgram(benchSrc)
	mod, err := Compile(prog)
	if err != nil {
		b.Fatal(err)
	}
	req := semantic.Request{Layer: "match", Class: "train", Aggregation: 4, Height: 9}

	refHost := newDiffHost(1<<30, req, nil)
	wantVerdict, err := refinterp.RunProgram(prog, refHost)
	if err != nil {
		b.Fatal(err)
	}
	wantState := refHost.state
	gasPerRun := uint64(1<<30) - refHost.gas
	var steps uint64
	{
		h := newDiffHost(1<<30, req, nil)
		v, err := Execute(mod, h)
		if err != nil || v != wantVerdict || !reflect.DeepEqual(h.state, wantState) {
			b.Fatalf("vm outcome diverges from reference: %v %v", v, err)
		}
		steps = mSteps.Value()
	}
	prev := mSteps.Value()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := newDiffHost(gasPerRun, req, nil)
		v, err := Execute(mod, h)
		if err != nil {
			b.Fatal(err)
		}
		if v != wantVerdict {
			b.Fatalf("verdict diverged: %+v", v)
		}
	}
	b.StopTimer()
	if steps > 0 {
		b.ReportMetric(float64(mSteps.Value()-prev)/float64(b.N), "ops/exec")
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(mSteps.Value()-prev), "ns/dispatch")
	}
}

// BenchmarkReferenceInterp is the tree-walking baseline for the same
// program, so the speedup (or cost) of compilation is visible in one
// bench run.
func BenchmarkReferenceInterp(b *testing.B) {
	prog := semantic.MustParseProgram(benchSrc)
	req := semantic.Request{Layer: "match", Class: "train", Aggregation: 4, Height: 9}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h := newDiffHost(1<<30, req, nil)
		if _, err := refinterp.RunProgram(prog, h); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompile measures source→module lowering.
func BenchmarkCompile(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := CompileSource(benchSrc); err != nil {
			b.Fatal(err)
		}
	}
}
