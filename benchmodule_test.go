package pds2

import (
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// goCmd builds a go command on this toolchain (GOTOOLCHAIN=local) that
// never touches the network (GOPROXY=off) and shares the caller's build
// cache through the inherited environment. It skips t when the
// toolchain ships no go command.
func goCmd(t *testing.T, dir string, args ...string) *exec.Cmd {
	t.Helper()
	goBin := filepath.Join(runtime.GOROOT(), "bin", "go")
	if _, err := os.Stat(goBin); err != nil {
		t.Skipf("no go command at %s", goBin)
	}
	cmd := exec.Command(goBin, args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOPROXY=off", "GOTOOLCHAIN=local")
	return cmd
}

// TestBenchmarkModule vets and tests the nested benchmark module against
// this tree. benchmark/ is a module of its own (`replace pds2 => ../`),
// so `go build ./...` and `go test ./...` here never compile it: without
// this test, renaming or re-typing anything the harness calls would
// surface only when the benchmark next runs. Every package the harness
// imports is also a dependency of this package's tests, so a cached
// pass here is never stale against a change to one of them.
func TestBenchmarkModule(t *testing.T) {
	for _, args := range [][]string{{"vet", "./..."}, {"test", "./..."}} {
		if out, err := goCmd(t, "benchmark", args...).CombinedOutput(); err != nil {
			t.Fatalf("go %s in benchmark/: %v\n%s", strings.Join(args, " "), err, out)
		}
	}
}

// TestNodeLinksNoTestCode keeps the packages that exist for tests, load
// generation and experiments out of the node binary: the reference
// policy evaluator and the other oracles under internal/proptest, the
// fault injector, the load generator and the experiment suite. A node
// that linked the reference evaluator could run it on chain, and every
// node must run the one engine, vm.Execute.
func TestNodeLinksNoTestCode(t *testing.T) {
	cmd := goCmd(t, ".", "list", "-deps", "./cmd/pds2-node")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list -deps ./cmd/pds2-node: %v\n%s", err, stderr.String())
	}
	for _, pkg := range strings.Fields(string(out)) {
		for _, banned := range []string{"pds2/internal/proptest", "pds2/internal/faults", "pds2/internal/loadgen", "pds2/internal/experiments"} {
			if pkg == banned || strings.HasPrefix(pkg, banned+"/") {
				t.Errorf("pds2-node depends on %s", pkg)
			}
		}
	}
}
