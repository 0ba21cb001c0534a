// Package faults is a deterministic, seedable fault-injection layer for
// chaos-testing the platform at the boundaries where real deployments
// fail: the HTTP API surface (via an http.RoundTripper wrapper on the
// client side and a middleware on the server side) and the simnet
// message fabric (via the network's fault hook). Faults are declared as
// schedules — named lists of rules that fire at a given rate or inside
// an operation-count window, scoped per endpoint and per peer — and a
// schedule plus a seed fully determines every injection decision, so a
// chaos run that fails reproduces from its seed.
//
// The supported fault kinds mirror the failures the paper's
// executor/storage outsourcing model (Fig. 3) must survive: dropped
// requests, slow links, spurious 5xx answers, responses truncated
// mid-body, connection resets, and clock-skewed block sealing.
package faults

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"pds2/internal/crypto"
	"pds2/internal/telemetry"
)

// Fault-injection observability: every injected fault counts once
// globally and once per kind, so a chaos run can pin exactly what it
// subjected the system to.
var (
	mInjected = telemetry.C("faults.injected_total")
	logFaults = telemetry.L("faults")
)

// Kind enumerates the injectable fault classes.
type Kind int

// Fault kinds.
const (
	// Drop swallows the operation: an HTTP request fails with a
	// transport error without reaching the server; a simnet message is
	// lost in transit.
	Drop Kind = iota

	// Delay adds latency before the operation proceeds.
	Delay

	// Err5xx short-circuits an HTTP request with a synthesized 5xx
	// response carrying the standard error envelope. With
	// Rule.AfterHandler set, the real handler runs first and its
	// response is discarded — the "failed after commit" case that
	// idempotent retry must survive.
	Err5xx

	// Partial truncates the HTTP response body mid-stream, so the
	// client sees a decode error after a 200 status.
	Partial

	// ConnReset fails the operation with a connection-reset error —
	// on the server side the connection is aborted without a response.
	ConnReset

	// ClockSkew skews the sealer's logical clock by Rule.Skew ticks
	// for seal operations, exercising the chain's timestamp
	// monotonicity checks.
	ClockSkew

	// Kill crashes the process (or a harness's stand-in for it) at the
	// decided operation: a durable node dies mid-run — possibly mid
	// log append — and must restart from its chain store. The HTTP and
	// simnet adapters ignore Kill; it is interpreted by crash-recovery
	// harnesses (the proptest persist oracle, experiment E17) which
	// tear the store down and reopen it when the decision fires.
	Kill
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Drop:
		return "drop"
	case Delay:
		return "delay"
	case Err5xx:
		return "err5xx"
	case Partial:
		return "partial"
	case ConnReset:
		return "conn_reset"
	case ClockSkew:
		return "clock_skew"
	case Kill:
		return "kill"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Rule is one declarative fault clause. A rule fires for an operation
// when the operation matches its Endpoint and Peer scopes, its
// operation counter falls inside [FromOp, ToOp), and the schedule's
// deterministic coin lands under Rate.
type Rule struct {
	Kind Kind

	// Rate is the firing probability in [0, 1]. 1 fires on every
	// matching operation.
	Rate float64

	// FromOp and ToOp bound the rule to an operation-count window:
	// the rule is live for operations n with FromOp <= n < ToOp.
	// ToOp == 0 means unbounded. Counters are per-injector and start
	// at 0, so {FromOp: 0, ToOp: 10} covers the first ten operations.
	FromOp, ToOp uint64

	// Endpoint scopes the rule to operations whose endpoint has this
	// prefix ("" matches everything). HTTP operations use the URL
	// path; simnet operations use "simnet".
	Endpoint string

	// Peer scopes the rule to a peer ("" matches everything). HTTP
	// uses the host; simnet uses "node-<id>" of the receiver.
	Peer string

	// Delay is the injected latency for Delay rules.
	Delay time.Duration

	// Status is the synthesized status for Err5xx rules (0 = 500).
	Status int

	// AfterHandler makes an Err5xx rule run the real handler before
	// discarding its response (server middleware only).
	AfterHandler bool

	// Skew is the logical-clock offset for ClockSkew rules.
	Skew int64
}

// matches reports whether the rule applies to the operation.
func (r Rule) matches(endpoint, peer string, op uint64) bool {
	if r.Endpoint != "" && !strings.HasPrefix(endpoint, r.Endpoint) {
		return false
	}
	if r.Peer != "" && r.Peer != peer {
		return false
	}
	if op < r.FromOp {
		return false
	}
	if r.ToOp != 0 && op >= r.ToOp {
		return false
	}
	return true
}

// Schedule is a named, seedable fault plan.
type Schedule struct {
	Name  string
	Seed  uint64
	Rules []Rule
}

// Decision is the injector's verdict for one operation. Multiple
// non-exclusive faults can combine (a delayed request can also be
// dropped); the HTTP and simnet adapters apply them in a fixed order.
type Decision struct {
	Drop         bool
	Delay        time.Duration
	Status       int  // non-zero: synthesize this 5xx
	AfterHandler bool // Err5xx after the real handler ran
	Partial      bool
	Reset        bool
	Skew         int64
	Kill         bool
}

// Faulty reports whether any fault fired.
func (d Decision) Faulty() bool {
	return d.Drop || d.Delay > 0 || d.Status != 0 || d.Partial || d.Reset || d.Skew != 0 || d.Kill
}

// Injector evaluates a schedule deterministically. It is safe for
// concurrent use; decisions depend on the order operations reach the
// injector, so fully reproducible runs must serialize their operations
// (the chaos harness drives the client sequentially for this reason).
type Injector struct {
	mu    sync.Mutex
	sched Schedule
	rng   *crypto.DRBG
	ops   uint64
	hits  map[Kind]uint64
}

// NewInjector builds an injector for the schedule, seeding its
// deterministic coin from Schedule.Seed.
func NewInjector(s Schedule) *Injector {
	return &Injector{
		sched: s,
		rng:   crypto.NewDRBGFromUint64(s.Seed, "faults/"+s.Name),
		hits:  make(map[Kind]uint64),
	}
}

// Decide evaluates every rule against one operation and returns the
// combined verdict. Each call consumes one operation count.
func (i *Injector) Decide(endpoint, peer string) Decision {
	i.mu.Lock()
	defer i.mu.Unlock()
	op := i.ops
	i.ops++
	var d Decision
	for _, r := range i.sched.Rules {
		if !r.matches(endpoint, peer, op) {
			continue
		}
		// Burn one coin per live rule whether or not it fires, so a
		// rule's decisions do not shift when a sibling rule is edited.
		if i.rng.Float64() >= r.Rate {
			continue
		}
		switch r.Kind {
		case Drop:
			d.Drop = true
		case Delay:
			d.Delay += r.Delay
		case Err5xx:
			d.Status = r.Status
			if d.Status == 0 {
				d.Status = 500
			}
			d.AfterHandler = r.AfterHandler
		case Partial:
			d.Partial = true
		case ConnReset:
			d.Reset = true
		case ClockSkew:
			d.Skew += r.Skew
		case Kill:
			d.Kill = true
		}
		i.hits[r.Kind]++
		mInjected.Inc()
		telemetry.C("faults.injected." + r.Kind.String()).Inc()
		logFaults.Debug("fault injected",
			telemetry.Str("kind", r.Kind.String()),
			telemetry.Str("endpoint", endpoint),
			telemetry.Str("peer", peer))
	}
	return d
}

// SealSkew returns the logical-clock skew to apply to the next seal
// operation (0 = none). It consumes one operation under the synthetic
// "seal.clock" endpoint, so ClockSkew rules are typically scoped with
// Endpoint: "seal.clock".
func (i *Injector) SealSkew() int64 {
	return i.Decide("seal.clock", "").Skew
}

// ShouldKill reports whether a crash fires at the next "node.commit"
// operation (one decision per committed block). Crash-recovery
// harnesses call it once per block and, when true, tear the durable
// store down mid-write and reopen it — Kill rules are typically scoped
// with Endpoint: "node.commit".
func (i *Injector) ShouldKill() bool {
	return i.Decide("node.commit", "").Kill
}

// Ops returns the number of operations decided so far.
func (i *Injector) Ops() uint64 {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.ops
}

// Injected returns the number of fired faults per kind.
func (i *Injector) Injected() map[Kind]uint64 {
	i.mu.Lock()
	defer i.mu.Unlock()
	out := make(map[Kind]uint64, len(i.hits))
	for k, v := range i.hits {
		out[k] = v
	}
	return out
}

// InjectedTotal returns the total number of fired faults.
func (i *Injector) InjectedTotal() uint64 {
	i.mu.Lock()
	defer i.mu.Unlock()
	var n uint64
	for _, v := range i.hits {
		n += v
	}
	return n
}
