package telemetry

import (
	"context"
	"runtime/pprof"
)

// LabelComponent is the pprof label key stamped on hot-path goroutines.
// A CPU profile of a busy node then attributes samples by subsystem
// ("ledger.seal", "ledger.import", "chainstore.fsync", ...) instead of
// lumping everything under anonymous goroutine stacks — the attribution
// that answers "which layer is a busy sealer spending its CPU in".
const LabelComponent = "component"

// WithComponent runs f with the component pprof label applied to the
// current goroutine (and inherited by goroutines it spawns). The label
// shows up in CPU and goroutine profiles under the "component" key.
//
// Cost when nobody is profiling is a few tens of nanoseconds — cheap
// enough for per-block paths (seal, import, fsync), too dear to apply
// once per transaction.
func WithComponent(name string, f func()) {
	pprof.Do(context.Background(), pprof.Labels(LabelComponent, name), func(context.Context) { f() })
}
