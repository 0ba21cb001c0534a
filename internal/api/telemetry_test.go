package api

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"pds2/internal/core"
	"pds2/internal/crypto"
	"pds2/internal/gossip"
	"pds2/internal/market"
	"pds2/internal/ml"
	"pds2/internal/simnet"
	"pds2/internal/telemetry"
)

// TestErrorPathsReturnJSON pins the uniform error contract: unknown
// routes and wrong methods must answer with the same JSON error body the
// handlers use, not ServeMux's plain-text defaults.
func TestErrorPathsReturnJSON(t *testing.T) {
	srv, _, _ := testServer(t, false)
	cases := []struct {
		name      string
		method    string
		path      string
		wantCode  int
		wantAllow string
	}{
		{name: "unknown root path", method: http.MethodGet, path: "/nope", wantCode: http.StatusNotFound},
		{name: "unknown v1 path", method: http.MethodGet, path: "/v1/nope", wantCode: http.StatusNotFound},
		{name: "trailing noise", method: http.MethodGet, path: "/v1/status/extra", wantCode: http.StatusNotFound},
		{name: "delete on status", method: http.MethodDelete, path: "/v1/status", wantCode: http.StatusMethodNotAllowed, wantAllow: "GET"},
		{name: "get on transactions", method: http.MethodGet, path: "/v1/transactions", wantCode: http.StatusMethodNotAllowed, wantAllow: "POST"},
		{name: "put on views", method: http.MethodPut, path: "/v1/views", wantCode: http.StatusMethodNotAllowed, wantAllow: "POST"},
		{name: "post on metrics", method: http.MethodPost, path: "/v1/metrics", wantCode: http.StatusMethodNotAllowed, wantAllow: "GET"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, srv.URL+tc.path, nil)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.wantCode {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.wantCode)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Fatalf("Content-Type = %q, want application/json", ct)
			}
			if tc.wantAllow != "" && !strings.Contains(resp.Header.Get("Allow"), tc.wantAllow) {
				t.Fatalf("Allow = %q, want it to contain %q", resp.Header.Get("Allow"), tc.wantAllow)
			}
			body, _ := io.ReadAll(resp.Body)
			var e apiError
			if err := json.Unmarshal(body, &e); err != nil {
				t.Fatalf("body is not the JSON error shape: %v (%q)", err, body)
			}
			if e.Error.Code == "" || e.Error.Message == "" {
				t.Fatalf("incomplete error envelope in %q", body)
			}
		})
	}
}

// newTestHTTPServer serves an existing market over httptest.
func newTestHTTPServer(t *testing.T, m *market.Market) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(NewServer(m, false))
	t.Cleanup(srv.Close)
	return srv
}

// TestMetricsAndTraceEndpoints is the subsystem acceptance test: a full
// workload lifecycle plus a short gossip run must leave a /v1/metrics
// snapshot covering the ledger, contract, market, gossip, tee and api
// families, and a /v1/trace export containing the complete lifecycle span
// tree (submit → match → execute → settle under one root).
func TestMetricsAndTraceEndpoints(t *testing.T) {
	telemetry.Default().Reset()
	telemetry.Enable()
	defer telemetry.Disable()

	_, m, err := core.RunDetailed(core.Scenario{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}

	// The scenario path does not gossip; run a tiny gossip-learning sim
	// so the gossip family has data too.
	rng := crypto.NewDRBGFromUint64(7, "api-telemetry")
	data, _ := ml.GenerateClassification(ml.SyntheticConfig{N: 200, Dim: 4}, rng)
	parts := data.PartitionIID(5, rng)
	net := simnet.New(simnet.Config{Seed: 7})
	runner, err := gossip.NewRunner(net, parts, gossip.Config{
		Cycle:        simnet.Second,
		ModelFactory: func() ml.Model { return ml.NewLogisticModel(4, 1e-3) },
	})
	if err != nil {
		t.Fatal(err)
	}
	runner.Start()
	net.Run(20 * simnet.Second)

	srv := newTestHTTPServer(t, m)

	var snap telemetry.Snapshot
	if code := getJSON(t, srv.URL+"/v1/metrics", &snap); code != http.StatusOK {
		t.Fatalf("GET /v1/metrics: %d", code)
	}
	if len(snap.Metrics) == 0 {
		t.Fatal("empty snapshot after a full scenario run")
	}
	families := map[string]bool{}
	for _, f := range snap.Families() {
		families[f] = true
	}
	for _, want := range []string{"ledger", "contract", "market", "gossip", "tee", "api"} {
		if !families[want] {
			t.Errorf("metric family %q missing from snapshot (have %v)", want, snap.Families())
		}
	}
	for name, check := range map[string]func(telemetry.Metric) bool{
		"ledger.block.seal_seconds":        func(m telemetry.Metric) bool { return m.Count > 0 },
		"ledger.state.root_seconds":        func(m telemetry.Metric) bool { return m.Count > 0 },
		"ledger.state.root_dirty_records":  func(m telemetry.Metric) bool { return m.Count > 0 && m.Sum > 0 },
		"ledger.tx.applied_total":          func(m telemetry.Metric) bool { return m.Value > 0 },
		"contract.calls_total":             func(m telemetry.Metric) bool { return m.Value > 0 },
		"market.workloads.submitted_total": func(m telemetry.Metric) bool { return m.Value >= 1 },
		"market.workloads.finalized_total": func(m telemetry.Metric) bool { return m.Value >= 1 },
		"gossip.messages_total":            func(m telemetry.Metric) bool { return m.Value > 0 },
		"tee.ecalls_total":                 func(m telemetry.Metric) bool { return m.Value > 0 },
	} {
		metric, ok := snap.Get(name)
		if !ok {
			t.Errorf("metric %q missing", name)
			continue
		}
		if !check(metric) {
			t.Errorf("metric %q has no data: %+v", name, metric)
		}
	}

	var trace telemetry.Trace
	if code := getJSON(t, srv.URL+"/v1/trace", &trace); code != http.StatusOK {
		t.Fatalf("GET /v1/trace: %d", code)
	}
	var root *telemetry.Span
	for i := range trace.Spans {
		if trace.Spans[i].Name == "workload.lifecycle" {
			root = &trace.Spans[i]
		}
	}
	if root == nil {
		t.Fatalf("no workload.lifecycle span in trace (%d spans)", len(trace.Spans))
	}
	if root.Attrs["workload"] == "" {
		t.Error("lifecycle root has no workload attribute")
	}
	children := map[string]bool{}
	for _, sp := range trace.Spans {
		if sp.Parent == root.ID {
			children[sp.Name] = true
		}
	}
	for _, stage := range []string{"workload.submit", "workload.match", "workload.execute", "workload.settle"} {
		if !children[stage] {
			t.Errorf("stage span %q missing under lifecycle root (have %v)", stage, children)
		}
	}
}
