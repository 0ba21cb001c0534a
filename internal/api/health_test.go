package api

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"pds2/internal/chainstore"
	"pds2/internal/crypto"
	"pds2/internal/gossip"
	"pds2/internal/identity"
	"pds2/internal/market"
	"pds2/internal/ml"
	"pds2/internal/simnet"
	"pds2/internal/telemetry"
)

// TestMetricsAndTraceDisabled pins the disabled-telemetry contract:
// /v1/metrics, /v1/metrics/history and /v1/trace answer 503 with the uniform
// JSON error envelope carrying the non-retryable "disabled" code and no
// Retry-After hint — a configured-off subsystem never comes back on its
// own, so clients must not burn retry budget on it — and never an
// empty-but-200 snapshot.
func TestMetricsAndTraceDisabled(t *testing.T) {
	telemetry.Disable()
	srv, _, _ := testServer(t, false)
	for _, path := range []string{"/v1/metrics", "/v1/metrics/history", "/v1/trace"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("GET %s: %d, want 503", path, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("GET %s: Content-Type %q", path, ct)
		}
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			t.Fatalf("GET %s: Retry-After %q on a permanently disabled subsystem", path, ra)
		}
		var e apiError
		if err := json.Unmarshal(body, &e); err != nil || e.Error.Code != CodeDisabled {
			t.Fatalf("GET %s: body %q is not the JSON error envelope", path, body)
		}
		if e.Error.Retryable {
			t.Fatalf("GET %s: disabled subsystem marked retryable", path)
		}
	}
}

// TestTraceHeaderPropagation pins the wire format: a request carrying
// X-PDS2-Trace must produce an api.request span in the caller's trace,
// and the response must carry the server span's own context.
func TestTraceHeaderPropagation(t *testing.T) {
	telemetry.Default().Reset()
	telemetry.Enable()
	defer telemetry.Disable()
	srv, _, _ := testServer(t, false)

	parent := telemetry.StartSpan("client.call", telemetry.SpanContext{})
	client := NewClient(srv.URL, WithTrace(parent.Context()))
	if _, err := client.Status(context.Background()); err != nil {
		t.Fatal(err)
	}
	parent.End()

	// The response header carries the server's span context in the same
	// trace as the client's parent span.
	req, err := http.NewRequest(http.MethodGet, srv.URL+"/v1/status", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(TraceHeader, parent.Context().String())
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	got, err := telemetry.ParseSpanContext(resp.Header.Get(TraceHeader))
	if err != nil {
		t.Fatalf("response %s header: %v", TraceHeader, err)
	}
	if got.Trace != parent.Context().Trace {
		t.Fatalf("server span in trace %016x, want the client trace %016x",
			uint64(got.Trace), uint64(parent.Context().Trace))
	}

	var reqSpan *telemetry.Span
	for _, s := range telemetry.Default().Tracer().Spans() {
		if s.Name == "api.request" && s.Parent == parent.ID() {
			s := s
			reqSpan = &s
		}
	}
	if reqSpan == nil {
		t.Fatal("no api.request span parented to the client span")
	}
	if reqSpan.Trace != parent.Context().Trace {
		t.Fatal("api.request span not stitched into the client trace")
	}
	if reqSpan.Attrs["path"] != "/v1/status" {
		t.Fatalf("span attrs: %v", reqSpan.Attrs)
	}
}

// TestHealthEndpoints exercises /healthz and /readyz: the built-in
// component checks are present, a registered gossip-connectivity check
// flips the node to degraded when churn takes every peer offline
// (degraded keeps /healthz at 200 but fails /readyz), and a saturated
// mempool makes the node outright unhealthy (503 on /healthz).
func TestHealthEndpoints(t *testing.T) {
	telemetry.Default().Reset()
	srvURL, s := healthTestServer(t, 0)

	var rep telemetry.HealthReport
	if code := getJSON(t, srvURL+"/healthz", &rep); code != http.StatusOK {
		t.Fatalf("GET /healthz: %d", code)
	}
	for _, name := range []string{"ledger.chain", "ledger.mempool", "market.executors"} {
		if _, ok := rep.Components[name]; !ok {
			t.Errorf("component %q missing from health report: %+v", name, rep.Components)
		}
	}
	if rep.Components["ledger.mempool"].State != telemetry.Healthy {
		t.Fatalf("fresh mempool not healthy: %+v", rep.Components["ledger.mempool"])
	}

	// Stand up a small gossip overlay and register its connectivity
	// check on this node.
	rng := crypto.NewDRBGFromUint64(9, "health-gossip")
	data, _ := ml.GenerateClassification(ml.SyntheticConfig{N: 60, Dim: 2}, rng)
	parts := data.PartitionIID(3, rng)
	net := simnet.New(simnet.Config{Seed: 9})
	runner, err := gossip.NewRunner(net, parts, gossip.Config{
		Cycle:        simnet.Second,
		ModelFactory: func() ml.Model { return ml.NewLogisticModel(2, 1e-3) },
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Health().Register("gossip.peers", runner.HealthCheck)

	if code := getJSON(t, srvURL+"/healthz", &rep); code != http.StatusOK {
		t.Fatalf("GET /healthz with gossip up: %d", code)
	}
	if rep.Components["gossip.peers"].State != telemetry.Healthy {
		t.Fatalf("gossip check with all peers online: %+v", rep.Components["gossip.peers"])
	}

	// Churn: every peer drops offline → the gossip component and the
	// whole node degrade. Degraded is not dead: /healthz stays 200 while
	// /readyz refuses.
	for _, id := range runner.NodeIDs() {
		net.SetOnline(id, false)
	}
	if code := getJSON(t, srvURL+"/healthz", &rep); code != http.StatusOK {
		t.Fatalf("GET /healthz degraded: %d, want 200", code)
	}
	if rep.Components["gossip.peers"].State != telemetry.Degraded {
		t.Fatalf("gossip check with peers churned out: %+v", rep.Components["gossip.peers"])
	}
	if rep.Status != telemetry.Degraded {
		t.Fatalf("aggregate status %v, want degraded", rep.Status)
	}
	if code := getJSON(t, srvURL+"/readyz", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("GET /readyz degraded: %d, want 503", code)
	}
}

// TestHealthzUnhealthyMempool pins the 503 path: a full mempool marks
// the node unhealthy and /healthz reports it with a 503.
func TestHealthzUnhealthyMempool(t *testing.T) {
	srvURL, _ := healthTestServer(t, 1)
	resp, err := http.Get(srvURL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var rep telemetry.HealthReport
	err = json.NewDecoder(resp.Body).Decode(&rep)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("GET /healthz with full pool: %d, want 503", resp.StatusCode)
	}
	if rep.Status != telemetry.Unhealthy || rep.Components["ledger.mempool"].State != telemetry.Unhealthy {
		t.Fatalf("report: %+v", rep)
	}
}

// TestSetDraining pins the drain switch: /readyz answers 503 while the
// server drains and 200 once it stops; /healthz answers 200 throughout.
func TestSetDraining(t *testing.T) {
	telemetry.Default().Reset()
	market.ExecutorHeartbeat.Beat() // an executor has worked: the node is Healthy
	srvURL, s := healthTestServer(t, 0)
	for _, draining := range []bool{false, true, false} {
		s.SetDraining(draining)
		want := http.StatusOK
		if draining {
			want = http.StatusServiceUnavailable
		}
		if code := getJSON(t, srvURL+"/readyz", nil); code != want {
			t.Fatalf("GET /readyz draining=%v: %d, want %d", draining, code, want)
		}
		if code := getJSON(t, srvURL+"/healthz", nil); code != http.StatusOK {
			t.Fatalf("GET /healthz draining=%v: %d, want 200", draining, code)
		}
	}
}

// healthTestServer stands up a market with the given mempool bound
// (0 = default) behind the API and, when bounded, fills the pool.
func healthTestServer(t *testing.T, mempoolSize int) (string, *Server) {
	t.Helper()
	user := identityNamed(t, "health-user")
	m, err := market.New(market.Config{
		Seed:         9,
		GenesisAlloc: map[identity.Address]uint64{user.Address(): 1_000_000},
		MempoolSize:  mempoolSize,
	})
	if err != nil {
		t.Fatal(err)
	}
	if mempoolSize > 0 {
		for i := 0; i < mempoolSize; i++ {
			tx := m.SignedTx(user, user.Address(), 1, nil)
			if err := m.Pool.Add(tx); err != nil {
				t.Fatal(err)
			}
		}
		if m.Pool.Len() < mempoolSize {
			t.Fatalf("pool %d/%d after filling", m.Pool.Len(), mempoolSize)
		}
	}
	s := NewServer(m, false)
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)
	return srv.URL, s
}

func identityNamed(t *testing.T, name string) *identity.Identity {
	t.Helper()
	return identity.New(name, crypto.NewDRBGFromUint64(99, name))
}

// TestHealthChainstoreComponent pins that a durable node surfaces the
// disk-backed store in /healthz (and an in-memory node does not).
func TestHealthChainstoreComponent(t *testing.T) {
	telemetry.Default().Reset()
	st, err := chainstore.Open(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	m, err := market.Open(market.Config{Seed: 11}, st)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(m, false))
	t.Cleanup(srv.Close)

	var rep telemetry.HealthReport
	if code := getJSON(t, srv.URL+"/healthz", &rep); code != http.StatusOK {
		t.Fatalf("GET /healthz: %d", code)
	}
	comp, ok := rep.Components["chainstore"]
	if !ok {
		t.Fatalf("no chainstore component in %v", rep.Components)
	}
	if comp.State != telemetry.Healthy {
		t.Fatalf("chainstore: %+v", comp)
	}

	// In-memory market: no chainstore component.
	srvURL, _ := healthTestServer(t, 0)
	var rep2 telemetry.HealthReport
	if code := getJSON(t, srvURL+"/healthz", &rep2); code != http.StatusOK {
		t.Fatalf("GET /healthz: %d", code)
	}
	if _, ok := rep2.Components["chainstore"]; ok {
		t.Fatal("in-memory node reports a chainstore component")
	}
}

// TestLogsEndpoint pins GET /v1/logs: records retained by the process log
// come back oldest-first with component filtering.
func TestLogsEndpoint(t *testing.T) {
	l := telemetry.DefaultLog()
	l.Reset()
	if err := telemetry.SetLogSpec("info"); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = telemetry.SetLogSpec("off") }()

	telemetry.L("ledger").Info("first", telemetry.Int("n", 1))
	telemetry.L("market").Info("second")
	telemetry.L("ledger").Warn("third")

	srv, _, _ := testServer(t, false)
	var out LogsResponse
	if code := getJSON(t, srv.URL+"/v1/logs", &out); code != http.StatusOK {
		t.Fatalf("GET /v1/logs: %d", code)
	}
	// The API server itself logs requests at debug (filtered at info),
	// so exactly the three seeded events are retained.
	if len(out.Events) < 3 {
		t.Fatalf("%d events, want >= 3", len(out.Events))
	}
	msgs := []string{}
	for _, e := range out.Events {
		msgs = append(msgs, e.Msg)
	}
	if msgs[0] != "first" || msgs[1] != "second" || msgs[2] != "third" {
		t.Fatalf("order: %v", msgs)
	}
	var ledgerOnly LogsResponse
	if code := getJSON(t, srv.URL+"/v1/logs?component=ledger", &ledgerOnly); code != http.StatusOK {
		t.Fatalf("GET /v1/logs?component=ledger: %d", code)
	}
	for _, e := range ledgerOnly.Events {
		if e.Component != "ledger" {
			t.Fatalf("filter leak: %+v", e)
		}
	}
	if len(ledgerOnly.Events) < 2 {
		t.Fatalf("ledger filter lost events: %+v", ledgerOnly.Events)
	}
}
