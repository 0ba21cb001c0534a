package pds2

import (
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// TestBenchmarkModule vets and tests the nested benchmark module against
// this tree. benchmark/ is a module of its own (`replace pds2 => ../`),
// so `go build ./...` and `go test ./...` here never compile it: without
// this test, renaming or re-typing anything the harness calls would
// surface only when the benchmark next runs. The nested go runs offline
// (GOPROXY=off) on this toolchain (GOTOOLCHAIN=local), sharing the
// caller's build cache through the inherited environment. Every package
// the harness imports is also a dependency of this package's tests, so a
// cached pass here is never stale against a change to one of them.
func TestBenchmarkModule(t *testing.T) {
	goBin := filepath.Join(runtime.GOROOT(), "bin", "go")
	if _, err := os.Stat(goBin); err != nil {
		t.Skipf("cannot vet and test benchmark/: no go command at %s", goBin)
	}
	for _, args := range [][]string{{"vet", "./..."}, {"test", "./..."}} {
		cmd := exec.Command(goBin, args...)
		cmd.Dir = "benchmark"
		cmd.Env = append(os.Environ(), "GOPROXY=off", "GOTOOLCHAIN=local")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go %s in benchmark/: %v\n%s", strings.Join(args, " "), err, out)
		}
	}
}
