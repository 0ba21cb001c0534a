package telemetry

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// HealthState classifies a component (or a whole node): Healthy serves
// normally, Degraded serves with reduced capability or capacity, and
// Unhealthy should be restarted or drained. States order by severity,
// so the aggregate of many checks is their maximum.
type HealthState int

// Health states, best to worst.
const (
	Healthy HealthState = iota
	Degraded
	Unhealthy
)

// String implements fmt.Stringer.
func (s HealthState) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Unhealthy:
		return "unhealthy"
	default:
		return fmt.Sprintf("HealthState(%d)", int(s))
	}
}

// MarshalJSON encodes the state as its lowercase name.
func (s HealthState) MarshalJSON() ([]byte, error) {
	return []byte(`"` + s.String() + `"`), nil
}

// UnmarshalJSON decodes the lowercase name form.
func (s *HealthState) UnmarshalJSON(b []byte) error {
	switch string(b) {
	case `"healthy"`:
		*s = Healthy
	case `"degraded"`:
		*s = Degraded
	case `"unhealthy"`:
		*s = Unhealthy
	default:
		return fmt.Errorf("telemetry: bad health state %s", b)
	}
	return nil
}

// CheckResult is one component's verdict at evaluation time.
type CheckResult struct {
	State  HealthState `json:"state"`
	Detail string      `json:"detail,omitempty"`
}

// OK is the all-clear check result.
func OK(detail string) CheckResult { return CheckResult{State: Healthy, Detail: detail} }

// DegradedResult flags reduced capability.
func DegradedResult(detail string) CheckResult {
	return CheckResult{State: Degraded, Detail: detail}
}

// UnhealthyResult flags a component that cannot serve.
func UnhealthyResult(detail string) CheckResult {
	return CheckResult{State: Unhealthy, Detail: detail}
}

// HealthCheck probes one component. Checks run synchronously inside
// Evaluate, so they must be cheap and must tolerate the caller's
// locking discipline (the API server evaluates under its market mutex).
type HealthCheck func() CheckResult

// HealthReport is the aggregated GET /healthz body.
type HealthReport struct {
	Status     HealthState            `json:"status"`
	Components map[string]CheckResult `json:"components"`
}

// Health aggregates named component checks into one node verdict. It is
// safe for concurrent registration and evaluation. A Health bound to a
// registry (NewHealth) exports each evaluation as gauges:
// health.state (0 healthy / 1 degraded / 2 unhealthy) and one
// health.component.<name> per check.
type Health struct {
	r      *Registry // nil: no gauge export
	mu     sync.Mutex
	checks map[string]HealthCheck
}

// NewHealth returns an empty health aggregator exporting gauges into r
// (nil disables gauge export).
func NewHealth(r *Registry) *Health {
	return &Health{r: r, checks: make(map[string]HealthCheck)}
}

// Register adds (or replaces) a named component check.
func (h *Health) Register(name string, check HealthCheck) {
	h.mu.Lock()
	h.checks[name] = check
	h.mu.Unlock()
}

// Deregister removes a component check.
func (h *Health) Deregister(name string) {
	h.mu.Lock()
	delete(h.checks, name)
	h.mu.Unlock()
}

// Evaluate runs every check and aggregates: the node is as unhealthy as
// its worst component. A node with no checks registered is Healthy
// (vacuously — nothing claims otherwise).
func (h *Health) Evaluate() HealthReport {
	h.mu.Lock()
	names := make([]string, 0, len(h.checks))
	for name := range h.checks {
		names = append(names, name)
	}
	sort.Strings(names)
	checks := make([]HealthCheck, len(names))
	for i, name := range names {
		checks[i] = h.checks[name]
	}
	h.mu.Unlock()

	report := HealthReport{Status: Healthy, Components: make(map[string]CheckResult, len(names))}
	for i, name := range names {
		res := checks[i]()
		report.Components[name] = res
		if res.State > report.Status {
			report.Status = res.State
		}
		if h.r != nil {
			h.r.Gauge("health.component." + name).Set(float64(res.State))
		}
	}
	if h.r != nil {
		h.r.Gauge("health.state").Set(float64(report.Status))
	}
	return report
}

// Heartbeat is a liveness signal for components that do work in bursts
// (executors, sealers): the worked path calls Beat, and the health
// check degrades when no beat arrived within MaxAge. The zero beat
// state reports Degraded ("no beat yet"), never Unhealthy, so a node
// that simply has not been asked to work is not flagged for restart.
type Heartbeat struct {
	maxAge time.Duration
	now    func() time.Time // injectable for tests
	beats  atomic.Uint64
	last   atomic.Int64 // unix nanoseconds of the last beat
}

// NewHeartbeat builds a heartbeat with the given staleness bound
// (<= 0 selects 5 minutes).
func NewHeartbeat(maxAge time.Duration) *Heartbeat {
	if maxAge <= 0 {
		maxAge = 5 * time.Minute
	}
	return &Heartbeat{maxAge: maxAge, now: time.Now}
}

// SetClock overrides the heartbeat's time source (tests).
func (hb *Heartbeat) SetClock(now func() time.Time) { hb.now = now }

// Beat records one unit of liveness.
func (hb *Heartbeat) Beat() {
	hb.beats.Add(1)
	hb.last.Store(hb.now().UnixNano())
}

// Beats returns the total number of beats.
func (hb *Heartbeat) Beats() uint64 { return hb.beats.Load() }

// Check is the HealthCheck over this heartbeat.
func (hb *Heartbeat) Check() CheckResult {
	n := hb.beats.Load()
	if n == 0 {
		return DegradedResult("no beat yet")
	}
	age := hb.now().Sub(time.Unix(0, hb.last.Load()))
	if age > hb.maxAge {
		return DegradedResult(fmt.Sprintf("last beat %s ago (max %s)", age.Round(time.Second), hb.maxAge))
	}
	return OK(fmt.Sprintf("%d beats", n))
}
