// Package simnet is a deterministic discrete-event network simulator.
// It is the physical substrate on which PDS² runs its decentralized
// protocols: gossip learning, federated learning and secure multiparty
// computation all exchange messages through a simnet.Network, which
// models latency, bandwidth, message loss and node churn, and accounts
// every byte sent — the communication costs reported in the experiments
// come from here.
//
// The simulator is single-threaded and event-driven: all protocol
// callbacks run inside Network.Run in virtual time, so simulations with
// thousands of nodes are exactly reproducible from their seed.
package simnet

import (
	"container/heap"
	"fmt"
	"math"
	"time"

	"pds2/internal/crypto"
	"pds2/internal/telemetry"
)

// Time is a point in virtual time, measured in microseconds from the
// start of the simulation.
type Time int64

// Common virtual durations.
const (
	Microsecond Time = 1
	Millisecond Time = 1000
	Second      Time = 1000 * Millisecond
)

// Duration converts the virtual time to a time.Duration for reporting.
func (t Time) Duration() time.Duration { return time.Duration(t) * time.Microsecond }

// String implements fmt.Stringer.
func (t Time) String() string { return t.Duration().String() }

// NodeID identifies a node within one Network. IDs are dense, starting
// from zero, so protocols can use them as slice indices.
type NodeID int

// Message is a payload in flight between two nodes. Size is the number of
// simulated wire bytes, which drives bandwidth and statistics; Payload is
// the in-memory value handed to the receiver (never serialized).
type Message struct {
	From    NodeID
	To      NodeID
	Size    int
	Payload any

	// Trace is the sender's span context, carried so the receiver can
	// continue the sender's distributed trace (telemetry only — it does
	// not contribute to Size, keeping wire accounting identical whether
	// tracing is on or off).
	Trace telemetry.SpanContext
}

// Handler receives messages delivered to a node.
type Handler interface {
	// HandleMessage is invoked in virtual time when a message arrives.
	HandleMessage(now Time, msg Message)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(now Time, msg Message)

// HandleMessage implements Handler.
func (f HandlerFunc) HandleMessage(now Time, msg Message) { f(now, msg) }

// LatencyModel computes the one-way propagation delay for a message
// between two nodes. Implementations must be deterministic given the rng.
type LatencyModel interface {
	Latency(from, to NodeID, rng *crypto.DRBG) Time
}

// FixedLatency is a constant propagation delay.
type FixedLatency Time

// Latency implements LatencyModel.
func (l FixedLatency) Latency(_, _ NodeID, _ *crypto.DRBG) Time { return Time(l) }

// UniformLatency draws the delay uniformly from [Min, Max].
type UniformLatency struct {
	Min, Max Time
}

// Latency implements LatencyModel.
func (l UniformLatency) Latency(_, _ NodeID, rng *crypto.DRBG) Time {
	if l.Max <= l.Min {
		return l.Min
	}
	return l.Min + Time(rng.Intn(int(l.Max-l.Min)+1))
}

// LogNormalLatency draws delays from a log-normal distribution, the
// standard model for wide-area round-trip times. Median is the median
// delay; Sigma the log-space standard deviation (≈0.5 for the internet).
type LogNormalLatency struct {
	Median Time
	Sigma  float64
}

// Latency implements LatencyModel.
func (l LogNormalLatency) Latency(_, _ NodeID, rng *crypto.DRBG) Time {
	v := float64(l.Median) * math.Exp(l.Sigma*rng.NormFloat64())
	if v < 1 {
		v = 1
	}
	return Time(v)
}

// Config parameterizes a Network.
type Config struct {
	Seed uint64 // DRBG seed; runs with equal seeds are identical

	// Latency is the propagation-delay model. Nil means FixedLatency(1ms).
	Latency LatencyModel

	// BandwidthBytesPerSec limits per-message serialization delay:
	// a message of S bytes adds S/Bandwidth of delay. Zero means
	// unlimited bandwidth (no serialization delay).
	BandwidthBytesPerSec int64

	// DropRate is the probability in [0,1] that a message is silently
	// lost in transit.
	DropRate float64
}

// Stats aggregates traffic counters for a Network or a single node.
type Stats struct {
	MessagesSent      int64
	MessagesDelivered int64
	MessagesDropped   int64
	BytesSent         int64
	BytesDelivered    int64
}

// FaultVerdict is a fault hook's decision for one message: lose it,
// and/or add propagation delay on top of the latency model.
type FaultVerdict struct {
	Drop       bool
	ExtraDelay Time
}

// FaultHook inspects every message at send time and may inject faults.
// It runs after the online/DropRate checks, so hook-injected losses are
// additive to the network's own loss model. Hooks must be deterministic
// for reproducible runs (internal/faults provides a seeded one).
type FaultHook func(now Time, from, to NodeID, size int) FaultVerdict

// Network is the simulator instance. It is not safe for concurrent use;
// all interaction happens from protocol callbacks inside Run or from the
// single goroutine that constructed it.
type Network struct {
	cfg       Config
	rng       *crypto.DRBG
	now       Time
	queue     eventQueue
	seq       int64
	handlers  []Handler
	online    []bool
	partition []int // group id per node; nil = no partition
	faultHook FaultHook
	stats     Stats
	perNode   []Stats
	running   bool
}

// New creates an empty network.
func New(cfg Config) *Network {
	if cfg.Latency == nil {
		cfg.Latency = FixedLatency(Millisecond)
	}
	return &Network{
		cfg: cfg,
		rng: crypto.NewDRBGFromUint64(cfg.Seed, "simnet"),
	}
}

// Now returns the current virtual time.
func (n *Network) Now() Time { return n.now }

// Rng exposes the network's deterministic random source, so protocols can
// share it instead of carrying their own seeds.
func (n *Network) Rng() *crypto.DRBG { return n.rng }

// AddNode registers a node with the given message handler and returns its
// ID. Nodes start online.
func (n *Network) AddNode(h Handler) NodeID {
	id := NodeID(len(n.handlers))
	n.handlers = append(n.handlers, h)
	n.online = append(n.online, true)
	n.perNode = append(n.perNode, Stats{})
	return id
}

// SetOnline marks a node up or down. Messages to or from an offline node
// are dropped; scheduled timers on offline nodes still fire (the protocol
// decides what an offline node does), matching the gossip-learning
// literature where churned nodes keep local state.
func (n *Network) SetOnline(id NodeID, up bool) {
	n.online[id] = up
}

// Online reports whether a node is currently up.
func (n *Network) Online(id NodeID) bool { return n.online[id] }

// SetPartition splits the network: messages between nodes in different
// groups are dropped at delivery time. Nodes not listed in any group
// form an implicit extra group. Pass the groups of a split-brain
// scenario; call ClearPartition to heal.
func (n *Network) SetPartition(groups ...[]NodeID) {
	n.partition = make([]int, len(n.handlers))
	for i := range n.partition {
		n.partition[i] = 0 // implicit group
	}
	for g, members := range groups {
		for _, id := range members {
			n.partition[id] = g + 1
		}
	}
}

// ClearPartition heals all partitions.
func (n *Network) ClearPartition() { n.partition = nil }

// SetFaultHook installs (or, with nil, removes) a fault-injection hook
// consulted for every subsequent Send.
func (n *Network) SetFaultHook(h FaultHook) { n.faultHook = h }

// reachable reports whether a message from a to b crosses a partition.
func (n *Network) reachable(a, b NodeID) bool {
	if n.partition == nil {
		return true
	}
	return n.partition[a] == n.partition[b]
}

// Send enqueues a message for delivery. Delivery time is
// now + latency + size/bandwidth; the message may be dropped according to
// DropRate or if either endpoint is offline at send or delivery time.
func (n *Network) Send(from, to NodeID, payload any, size int) {
	n.SendCtx(from, to, payload, size, telemetry.SpanContext{})
}

// SendCtx is Send carrying the sender's trace context, so the
// receiver's spans stitch into the sender's trace.
func (n *Network) SendCtx(from, to NodeID, payload any, size int, ctx telemetry.SpanContext) {
	if size < 0 {
		panic(fmt.Sprintf("simnet: negative message size %d", size))
	}
	n.stats.MessagesSent++
	n.stats.BytesSent += int64(size)
	n.perNode[from].MessagesSent++
	n.perNode[from].BytesSent += int64(size)

	if !n.online[from] || n.rng.Float64() < n.cfg.DropRate {
		n.stats.MessagesDropped++
		return
	}
	var injected Time
	if n.faultHook != nil {
		v := n.faultHook(n.now, from, to, size)
		if v.Drop {
			n.stats.MessagesDropped++
			return
		}
		injected = v.ExtraDelay
	}
	delay := injected + n.cfg.Latency.Latency(from, to, n.rng)
	if n.cfg.BandwidthBytesPerSec > 0 {
		delay += Time(int64(size) * int64(Second) / n.cfg.BandwidthBytesPerSec)
	}
	msg := Message{From: from, To: to, Size: size, Payload: payload, Trace: ctx}
	n.schedule(n.now+delay, func(t Time) {
		if !n.online[to] || !n.reachable(from, to) {
			n.stats.MessagesDropped++
			return
		}
		n.stats.MessagesDelivered++
		n.stats.BytesDelivered += int64(msg.Size)
		n.perNode[to].MessagesDelivered++
		n.perNode[to].BytesDelivered += int64(msg.Size)
		n.handlers[to].HandleMessage(t, msg)
	})
}

// At schedules fn to run at the given virtual time (or immediately if t
// is in the past).
func (n *Network) At(t Time, fn func(now Time)) {
	if t < n.now {
		t = n.now
	}
	n.schedule(t, fn)
}

// After schedules fn to run d after the current time.
func (n *Network) After(d Time, fn func(now Time)) {
	n.schedule(n.now+d, fn)
}

// Every schedules fn at period intervals starting at start, until Run's
// horizon ends or fn returns false.
func (n *Network) Every(start, period Time, fn func(now Time) bool) {
	if period <= 0 {
		panic("simnet: Every requires a positive period")
	}
	var tick func(now Time)
	tick = func(now Time) {
		if !fn(now) {
			return
		}
		n.schedule(now+period, tick)
	}
	n.At(start, tick)
}

func (n *Network) schedule(t Time, fn func(now Time)) {
	n.seq++
	heap.Push(&n.queue, &event{at: t, seq: n.seq, fn: fn})
}

// Run processes events in virtual-time order until the queue is empty or
// virtual time exceeds until. It returns the final virtual time.
func (n *Network) Run(until Time) Time {
	if n.running {
		panic("simnet: Run called re-entrantly")
	}
	n.running = true
	defer func() { n.running = false }()
	for n.queue.Len() > 0 {
		ev := n.queue.peek()
		if ev.at > until {
			n.now = until
			return n.now
		}
		heap.Pop(&n.queue)
		n.now = ev.at
		ev.fn(n.now)
	}
	if n.now < until {
		n.now = until
	}
	return n.now
}

// Pending returns the number of queued events, useful in tests.
func (n *Network) Pending() int { return n.queue.Len() }

// Stats returns a copy of the global traffic counters.
func (n *Network) Stats() Stats { return n.stats }

// NodeStats returns a copy of the traffic counters for one node.
func (n *Network) NodeStats(id NodeID) Stats { return n.perNode[id] }

// event is a scheduled callback. seq breaks ties between events at the
// same virtual time, preserving scheduling order for determinism.
type event struct {
	at  Time
	seq int64
	fn  func(now Time)
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return ev
}
func (q eventQueue) peek() *event { return q[0] }
