package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync/atomic"
	"time"
)

// spanName names a layer boundary the benchmark wraps: the repo's package
// name plus the call made into it. It is a small integer so that a span
// holds no pointer and the collector never scans the recorder's slab.
type spanName uint8

const (
	spanClientSubmit spanName = iota // api.Client call posting a transaction
	spanClientRead                   // api.Client read call
	spanClientSeal                   // the sealer's Seal call
	spanServerSubmit                 // handler wrapper, tx-admission routes
	spanServerRead                   // handler wrapper, read routes
	spanServerStatus                 // handler wrapper, GET /v1/status
	spanServerSeal                   // handler wrapper, POST /v1/blocks/seal
	spanServerOther
	spanAppend    // commit hook calling Store.Append
	spanLifecycle // SubmitWorkload → Finalize
	spanStageSubmit
	spanStageMatch
	spanStageExecute
	spanStageSettle
)

var spanNames = [...]string{
	spanClientSubmit: "api.client.submit",
	spanClientRead:   "api.client.read",
	spanClientSeal:   "api.client.seal",
	spanServerSubmit: "api.server.submit",
	spanServerRead:   "api.server.read",
	spanServerStatus: "api.server.status",
	spanServerSeal:   "api.server.seal",
	spanServerOther:  "api.server.other",
	spanAppend:       "chainstore.append",
	spanLifecycle:    "market.lifecycle",
	spanStageSubmit:  "market.stage.submit",
	spanStageMatch:   "market.stage.match",
	spanStageExecute: "market.stage.execute",
	spanStageSettle:  "market.stage.settle",
}

func (n spanName) String() string { return spanNames[n] }

// MarshalText writes the name, not the number, into -spans output.
func (n spanName) MarshalText() ([]byte, error) { return []byte(n.String()), nil }

// span is one timed interval. Times are nanoseconds since the recorder
// started. Ref is the identifier spans of one request share: the op
// index for request spans, the block height for seal and append spans,
// the lifecycle index for market spans.
type span struct {
	Name   spanName `json:"name"`
	ID     uint32   `json:"id"`
	Parent uint32   `json:"parent,omitempty"`
	Ref    int64    `json:"ref"`
	Start  int64    `json:"start_ns"`
	End    int64    `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory in a preallocated slab; begin reserves
// a slot with one atomic add, so concurrent handlers never contend on a
// lock. A nil recorder is the untraced run: every method is a no-op.
type recorder struct {
	t0      time.Time
	slab    []span
	next    atomic.Int64
	dropped atomic.Int64

	// sealSpan is the server span of the seal request in flight, the
	// parent of the commit hook's append span (seals are serialized by
	// the node, so one slot suffices).
	sealSpan atomic.Uint32
}

func newRecorder(capacity int) *recorder {
	return &recorder{t0: time.Now(), slab: make([]span, capacity)}
}

// begin opens a span and returns its id (0 when untraced or full).
func (r *recorder) begin(name spanName, parent uint32, ref int64) uint32 {
	if r == nil {
		return 0
	}
	i := r.next.Add(1)
	if i > int64(len(r.slab)) {
		r.dropped.Add(1)
		return 0
	}
	r.slab[i-1] = span{Name: name, ID: uint32(i), Parent: parent, Ref: ref, Start: int64(time.Since(r.t0))}
	return uint32(i)
}

// end closes a span opened by begin.
func (r *recorder) end(id uint32) {
	if r == nil || id == 0 {
		return
	}
	r.slab[id-1].End = int64(time.Since(r.t0))
}

// setRef fills in an identifier learned only after the span began (the
// height a seal produced).
func (r *recorder) setRef(id uint32, ref int64) {
	if r == nil || id == 0 {
		return
	}
	r.slab[id-1].Ref = ref
}

// spans returns the finished spans. Call only after every goroutine
// that records has stopped.
func (r *recorder) spans() []span {
	if r == nil {
		return nil
	}
	n := r.next.Load()
	if n > int64(len(r.slab)) {
		n = int64(len(r.slab))
	}
	out := make([]span, 0, n)
	for _, s := range r.slab[:n] {
		if s.End >= s.Start && s.End != 0 {
			out = append(out, s)
		}
	}
	return out
}

// durations collects the durations of every span with the given name,
// in milliseconds.
func durations(spans []span, name spanName) samples {
	var out samples
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.dur())/1e6)
		}
	}
	return out
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval that its direct children cover (overlapping children are
// counted once, and a child is clipped to its parent).
func selfTimes(spans []span) map[uint32]time.Duration {
	children := make(map[uint32][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[uint32]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered, reach int64
		reach = s.Start
		for _, k := range kids {
			lo, hi := k.Start, k.End
			if lo < reach {
				lo = reach
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[s.ID] = time.Duration(s.End - s.Start - covered)
	}
	return out
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
