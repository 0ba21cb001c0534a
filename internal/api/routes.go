package api

import (
	"context"
	"net/http"
	"net/http/pprof"

	"pds2/internal/telemetry"
)

// routeFlag carries the per-route middleware selections of the route
// table. Flags replace ad-hoc wrapping at registration sites: a route
// states what it needs, and install derives the handler chain.
type routeFlag uint8

const (
	// flagTimeoutExempt skips the per-request deadline. pprof collection
	// endpoints run for caller-chosen durations (?seconds=30 CPU
	// profiles, delta mutex profiles) and must outlive it.
	flagTimeoutExempt routeFlag = 1 << iota

	// flagPprofGuarded answers a machine-readable 503 until the operator
	// enables profiling with SetPprof(true) — never an accidental
	// default on a public gateway.
	flagPprofGuarded

	// flagNeedsTelemetry answers 503 while the telemetry registry is
	// disabled: the response would otherwise be a misleading all-zeros.
	flagNeedsTelemetry
)

// route is one entry of the server's declarative route table. An empty
// method registers the bare path (method-agnostic, pprof only);
// everything else uses Go 1.22 "METHOD /path" patterns, which makes
// ServeMux derive 405 verdicts (with an Allow header) that ServeHTTP
// re-emits as the uniform JSON envelope.
type route struct {
	method string
	path   string
	flags  routeFlag
	h      http.HandlerFunc
}

// routes returns the server's full route table — the single source of
// truth for what this API serves. Everything is versioned under /v1/
// except the paths whose spelling the tools calling them fix:
// orchestrator probes (/healthz, /readyz) and go tool pprof
// (/debug/pprof/).
func (s *Server) routes() []route {
	return []route{
		{"GET", "/v1/status", 0, s.handleStatus},
		{"GET", "/v1/blocks/{height}", 0, s.handleBlock},
		{"GET", "/v1/accounts/{addr}", 0, s.handleAccount},
		{"GET", "/v1/receipts/{hash}", 0, s.handleReceipt},
		{"GET", "/v1/events", 0, s.handleEvents},
		{"GET", "/v1/workloads", 0, s.handleWorkloads},
		{"GET", "/v1/workloads/{addr}", 0, s.handleWorkload},
		{"GET", "/v1/datasets", 0, s.handleDatasets},
		{"POST", "/v1/datasets", 0, s.handleRegisterDataset},
		{"GET", "/v1/datasets/{id}", 0, s.handleDataset},
		{"PUT", "/v1/datasets/{id}/policy", 0, s.handleSetPolicy},
		{"GET", "/v1/datasets/{id}/check", 0, s.handleCheckPolicy},
		{"POST", "/v1/contracts", 0, s.handleDeployContract},
		{"GET", "/v1/policies/decisions", 0, s.handlePolicyDecisions},
		{"POST", "/v1/transactions", 0, s.handleSubmitTx},
		{"POST", "/v1/views", 0, s.handleView},
		{"POST", "/v1/blocks/seal", 0, s.handleSeal},
		{"GET", "/v1/buildinfo", 0, s.handleBuildInfo},
		{"GET", "/v1/metrics", flagNeedsTelemetry, s.handleMetrics},
		{"GET", "/v1/metrics/history", flagNeedsTelemetry, s.handleMetricsHistory},
		{"GET", "/v1/trace", flagNeedsTelemetry, s.handleTrace},
		{"GET", "/v1/logs", 0, s.handleLogs},
		{"GET", "/healthz", 0, s.handleHealthz},
		{"GET", "/readyz", 0, s.handleReadyz},
		// Standard pprof surface. The explicit non-index routes are
		// required because the Index handler only dispatches to named
		// profiles, not cmdline/profile/symbol/trace.
		{"", "/debug/pprof/", flagPprofGuarded | flagTimeoutExempt, pprof.Index},
		{"", "/debug/pprof/cmdline", flagPprofGuarded | flagTimeoutExempt, pprof.Cmdline},
		{"", "/debug/pprof/profile", flagPprofGuarded | flagTimeoutExempt, pprof.Profile},
		{"", "/debug/pprof/symbol", flagPprofGuarded | flagTimeoutExempt, pprof.Symbol},
		{"", "/debug/pprof/trace", flagPprofGuarded | flagTimeoutExempt, pprof.Trace},
	}
}

// install registers every table row on the mux with its flag-derived
// middleware chain.
func (s *Server) install() {
	for _, rt := range s.routes() {
		h := rt.h
		if rt.flags&flagPprofGuarded != 0 {
			h = s.pprofGuard(h)
		}
		if rt.flags&flagNeedsTelemetry != 0 {
			h = telemetryGate(h)
		}
		if rt.flags&flagTimeoutExempt == 0 {
			h = withTimeout(h)
		}
		pattern := rt.path
		if rt.method != "" {
			pattern = rt.method + " " + rt.path
		}
		s.mux.HandleFunc(pattern, h)
	}
}

// withTimeout bounds the request context with DefaultRequestTimeout.
// Handlers check it before starting expensive work; it cannot interrupt
// a write to a client that stopped reading, which is why no handler
// writes under the market mutex (Server.locked).
func withTimeout(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), DefaultRequestTimeout)
		defer cancel()
		h(w, r.WithContext(ctx))
	}
}

// telemetryGate answers the stable disabled envelope while the
// process-wide telemetry registry is off.
func telemetryGate(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !telemetry.Default().Enabled() {
			writeErr(w, http.StatusServiceUnavailable, CodeDisabled, "telemetry disabled on this node")
			return
		}
		h(w, r)
	}
}

// RouteInfo is one externally visible row of the route table, exposed
// for documentation drift gates and operational tooling.
type RouteInfo struct {
	// Method is the HTTP method; "ANY" marks method-agnostic routes.
	Method string `json:"method"`
	// Path is the Go 1.22 ServeMux pattern (may carry {wildcards}).
	Path string `json:"path"`
	// TimeoutExempt, PprofGuarded and NeedsTelemetry mirror the route's
	// middleware flags.
	TimeoutExempt  bool `json:"timeout_exempt,omitempty"`
	PprofGuarded   bool `json:"pprof_guarded,omitempty"`
	NeedsTelemetry bool `json:"needs_telemetry,omitempty"`
}

// Routes lists every route the server registers, in table order.
func (s *Server) Routes() []RouteInfo {
	table := s.routes()
	out := make([]RouteInfo, 0, len(table))
	for _, rt := range table {
		method := rt.method
		if method == "" {
			method = "ANY"
		}
		out = append(out, RouteInfo{
			Method:         method,
			Path:           rt.path,
			TimeoutExempt:  rt.flags&flagTimeoutExempt != 0,
			PprofGuarded:   rt.flags&flagPprofGuarded != 0,
			NeedsTelemetry: rt.flags&flagNeedsTelemetry != 0,
		})
	}
	return out
}
