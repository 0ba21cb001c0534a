package api

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"pds2/internal/crypto"
	"pds2/internal/identity"
	"pds2/internal/market"
	"pds2/internal/telemetry"
)

// testServerHandle is testServer but also returns the *Server so tests
// can flip runtime switches (SetPprof).
func testServerHandle(t *testing.T) (*httptest.Server, *Server) {
	t.Helper()
	user := identity.New("user", crypto.NewDRBGFromUint64(1, "api-observability-test"))
	m, err := market.New(market.Config{
		Seed:         1,
		GenesisAlloc: map[identity.Address]uint64{user.Address(): 1_000_000},
	})
	if err != nil {
		t.Fatal(err)
	}
	api := NewServer(m, false)
	srv := httptest.NewServer(api)
	t.Cleanup(srv.Close)
	return srv, api
}

func TestMetricsHistoryEndpoint(t *testing.T) {
	telemetry.Default().Reset()
	telemetry.Enable()
	defer telemetry.Disable()
	telemetry.EnableHistory(2*time.Millisecond, 256)
	defer telemetry.DisableHistory()

	srv, _ := testServerHandle(t)
	telemetry.G("ledger.mempool.depth").Set(7)

	// Wait for the ring to accumulate a few ticks, the newest of them
	// after the Set above (fixture set-up already ticked the ring).
	deadline := time.Now().Add(2 * time.Second)
	var dump telemetry.HistoryDump
	var series []telemetry.SeriesPoint
	for time.Now().Before(deadline) {
		if code := getJSON(t, srv.URL+"/v1/metrics/history", &dump); code != http.StatusOK {
			t.Fatalf("GET /v1/metrics/history: %d", code)
		}
		series = dump.Series("ledger.mempool.depth")
		if len(dump.Samples) >= 3 && len(series) > 0 && series[len(series)-1].Value == 7 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if len(dump.Samples) < 3 {
		t.Fatalf("history accumulated only %d samples", len(dump.Samples))
	}
	if dump.IntervalNS != int64(2*time.Millisecond) || dump.Capacity != 256 {
		t.Fatalf("dump header %+v", dump)
	}
	if len(series) == 0 || series[len(series)-1].Value != 7 {
		t.Fatalf("mempool depth series = %+v", series)
	}

	// The window parameter trims; a bogus one is a 400.
	var windowed telemetry.HistoryDump
	if code := getJSON(t, srv.URL+"/v1/metrics/history?window=10m", &windowed); code != http.StatusOK {
		t.Fatalf("windowed GET: %d", code)
	}
	resp, err := http.Get(srv.URL + "/v1/metrics/history?window=bogus")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad window: %d, body %s", resp.StatusCode, body)
	}
	var e apiError
	if json.Unmarshal(body, &e) != nil || e.Error.Code != CodeBadRequest {
		t.Fatalf("bad window body %q", body)
	}

	// The typed client round-trips the dump.
	cl := NewClient(srv.URL)
	got, err := cl.MetricsHistory(context.Background(), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Samples) == 0 {
		t.Fatal("client fetched empty history")
	}
}

func TestMetricsHistoryDisabledRing(t *testing.T) {
	telemetry.Default().Reset()
	telemetry.Enable()
	defer telemetry.Disable()
	telemetry.DisableHistory()

	srv, _ := testServerHandle(t)
	resp, err := http.Get(srv.URL + "/v1/metrics/history")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	var e apiError
	if json.Unmarshal(body, &e) != nil || e.Error.Code != CodeDisabled || e.Error.Retryable {
		t.Fatalf("body %q, want non-retryable disabled envelope", body)
	}
}

// TestPprofGuard pins the profiling contract: the /debug/pprof/ surface
// answers the non-retryable disabled envelope until SetPprof(true), then
// serves real pprof artifacts (gzipped protobuf for named profiles).
func TestPprofGuard(t *testing.T) {
	srv, api := testServerHandle(t)

	resp, err := http.Get(srv.URL + "/debug/pprof/goroutine")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("guarded pprof: %d, want 503", resp.StatusCode)
	}
	var e apiError
	if json.Unmarshal(body, &e) != nil || e.Error.Code != CodeDisabled || e.Error.Retryable {
		t.Fatalf("guarded pprof body %q", body)
	}

	api.SetPprof(true)
	if !api.PprofEnabled() {
		t.Fatal("SetPprof did not stick")
	}
	resp, err = http.Get(srv.URL + "/debug/pprof/goroutine")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("enabled pprof: %d, body %s", resp.StatusCode, body)
	}
	// Named profiles default to the binary pprof format: gzip magic, and
	// the whole stream must decode (CRC-checked).
	if len(body) < 2 || body[0] != 0x1f || body[1] != 0x8b {
		t.Fatalf("goroutine profile is not gzipped pprof (starts %x)", body[:min(4, len(body))])
	}
	zr, err := gzip.NewReader(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.Copy(io.Discard, zr); err != nil {
		t.Fatalf("profile stream corrupt: %v", err)
	}

	// The index page serves too, and the typed client fetches raw bytes.
	resp, err = http.Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	status := resp.StatusCode
	resp.Body.Close()
	if status != http.StatusOK {
		t.Fatalf("pprof index: %d", status)
	}
	cl := NewClient(srv.URL)
	raw, err := cl.Pprof(context.Background(), "heap", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) < 2 || raw[0] != 0x1f || raw[1] != 0x8b {
		t.Fatal("client heap profile is not gzipped pprof")
	}
}

// TestClientTrace covers the typed /v1/trace accessor.
func TestClientTrace(t *testing.T) {
	telemetry.Default().Reset()
	telemetry.Enable()
	defer telemetry.Disable()

	srv, _ := testServerHandle(t)
	sp := telemetry.StartSpan("test.span", telemetry.SpanContext{})
	sp.End()

	cl := NewClient(srv.URL)
	tr, err := cl.Trace(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range tr.Spans {
		if s.Name == "test.span" {
			found = true
		}
	}
	if !found {
		t.Fatalf("test.span missing from client trace (%d spans)", len(tr.Spans))
	}
}
