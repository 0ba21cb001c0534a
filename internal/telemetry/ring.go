package telemetry

// ring is the fixed-capacity buffer behind the tracer, the log and the
// metrics history: once full, each push overwrites the oldest entry.
// It is not synchronized; its owner's mutex guards it.
type ring[T any] struct {
	buf  []T
	pos  int
	full bool
}

func newRing[T any](capacity int) ring[T] { return ring[T]{buf: make([]T, capacity)} }

// push appends v, overwriting the oldest entry when full.
func (r *ring[T]) push(v T) {
	r.buf[r.pos] = v
	r.pos++
	if r.pos == len(r.buf) {
		r.pos, r.full = 0, true
	}
}

// items returns a copy of the entries, oldest first.
func (r *ring[T]) items() []T {
	if !r.full {
		return append([]T(nil), r.buf[:r.pos]...)
	}
	out := make([]T, 0, len(r.buf))
	out = append(out, r.buf[r.pos:]...)
	return append(out, r.buf[:r.pos]...)
}

// reset forgets every entry; the capacity stays.
func (r *ring[T]) reset() { r.pos, r.full = 0, false }
