package diag

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pds2/internal/api"
	"pds2/internal/crypto"
	"pds2/internal/identity"
	"pds2/internal/market"
	"pds2/internal/telemetry"
)

func withTelemetry(t *testing.T) {
	t.Helper()
	telemetry.Default().Reset()
	telemetry.Enable()
	telemetry.EnableHistory(2*time.Millisecond, 256)
	t.Cleanup(func() {
		telemetry.DisableHistory()
		telemetry.Disable()
	})
}

// serveNode starts a node with pprof on and one sealed transfer, so a
// bundle captured from it has content, and returns a client for it.
func serveNode(t *testing.T) *api.Client {
	t.Helper()
	user := identity.New("user", crypto.NewDRBGFromUint64(1, "diag-test"))
	m, err := market.New(market.Config{
		Seed:         1,
		GenesisAlloc: map[identity.Address]uint64{user.Address(): 1_000_000},
	})
	if err != nil {
		t.Fatal(err)
	}
	apiSrv := api.NewServer(m, true)
	apiSrv.SetPprof(true)
	srv := httptest.NewServer(apiSrv)
	t.Cleanup(srv.Close)

	tx := m.SignedTx(user, identity.New("peer", crypto.NewDRBGFromUint64(2, "diag-test")).Address(), 100, nil)
	if err := m.Submit(tx); err != nil {
		t.Fatal(err)
	}
	if _, err := m.SealBlockAt(m.Timestamp() + 1); err != nil {
		t.Fatal(err)
	}
	return api.NewClient(srv.URL)
}

// captureBundle captures a bundle from a fresh node into a temp dir.
func captureBundle(t *testing.T) string {
	t.Helper()
	withTelemetry(t)
	dir := t.TempDir()
	if _, _, err := CaptureRemote(context.Background(), serveNode(t), Options{OutDir: dir}); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestVerifyDetectsCorruption(t *testing.T) {
	dir := captureBundle(t)
	if _, err := Verify(dir); err != nil {
		t.Fatalf("clean bundle failed verification: %v", err)
	}

	// Flip a byte in the goroutine profile: checksum must catch it.
	path := filepath.Join(dir, "goroutine.pprof")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Verify(dir); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("corrupted profile passed verification (err=%v)", err)
	}
}

func TestVerifyDetectsTruncation(t *testing.T) {
	dir := captureBundle(t)
	path := filepath.Join(dir, "heap.pprof")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Verify(dir); err == nil {
		t.Fatal("truncated profile passed verification")
	}
}

func TestVerifyDetectsMissingRequiredArtifact(t *testing.T) {
	dir := captureBundle(t)
	raw, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	var m Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	kept := m.Artifacts[:0]
	for _, a := range m.Artifacts {
		if a.Name != "metrics" {
			kept = append(kept, a)
		}
	}
	m.Artifacts = kept
	out, _ := json.Marshal(m)
	if err := os.WriteFile(filepath.Join(dir, ManifestName), out, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Verify(dir); err == nil || !strings.Contains(err.Error(), "metrics") {
		t.Fatalf("manifest missing metrics passed verification (err=%v)", err)
	}
}

// TestCaptureRemoteVerifyRoundTrip captures a bundle and reads it back:
// the bundle lands where asked, its manifest header names the node, Verify
// sees every artifact the capture wrote, and the history artifact carries
// the gauge series set before capture.
func TestCaptureRemoteVerifyRoundTrip(t *testing.T) {
	withTelemetry(t)
	cl := serveNode(t)
	telemetry.G("ledger.mempool.depth").Set(3)
	time.Sleep(10 * time.Millisecond) // a few history ticks

	dir := t.TempDir()
	got, m, err := CaptureRemote(context.Background(), cl, Options{OutDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if got != dir {
		t.Fatalf("bundle dir %q, want %q", got, dir)
	}
	if m.Schema != ManifestSchema || m.Source != cl.BaseURL() {
		t.Fatalf("manifest header %+v", m)
	}
	vm, err := Verify(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(vm.Artifacts) != len(m.Artifacts) {
		t.Fatalf("verify read %d artifacts, capture wrote %d", len(vm.Artifacts), len(m.Artifacts))
	}

	// The history artifact actually carries the gauge series.
	raw, err := os.ReadFile(filepath.Join(dir, "metrics_history.json"))
	if err != nil {
		t.Fatal(err)
	}
	var dump telemetry.HistoryDump
	if err := json.Unmarshal(raw, &dump); err != nil {
		t.Fatal(err)
	}
	series := dump.Series("ledger.mempool.depth")
	if len(series) == 0 || series[len(series)-1].Value != 3 {
		t.Fatalf("mempool series in bundle = %+v", series)
	}
}

// TestCaptureRemote drives the full operator path: a real node served
// over HTTP with pprof on, captured into a bundle that verifies.
func TestCaptureRemote(t *testing.T) {
	withTelemetry(t)
	cl := serveNode(t)
	time.Sleep(10 * time.Millisecond) // history ticks

	dir := t.TempDir()
	_, man, err := CaptureRemote(context.Background(), cl, Options{OutDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if failed := man.Failed(); len(failed) != 0 {
		t.Fatalf("artifacts failed against a fully enabled node: %v", failed)
	}
	if man.Build.GoVersion == "" {
		t.Fatal("manifest carries no build info")
	}
	if _, err := Verify(dir); err != nil {
		t.Fatal(err)
	}
	// Health came from the real /healthz.
	raw, err := os.ReadFile(filepath.Join(dir, "health.json"))
	if err != nil {
		t.Fatal(err)
	}
	var hr telemetry.HealthReport
	if err := json.Unmarshal(raw, &hr); err != nil {
		t.Fatal(err)
	}
	if len(hr.Components) == 0 {
		t.Fatal("health report has no components")
	}
}

// TestCaptureRemotePartialBundle pins the degraded path: a node with
// pprof off yields a bundle whose manifest records the profile failures
// instead of the capture failing outright.
func TestCaptureRemotePartialBundle(t *testing.T) {
	withTelemetry(t)
	user := identity.New("user", crypto.NewDRBGFromUint64(3, "diag-test"))
	m, err := market.New(market.Config{
		Seed:         3,
		GenesisAlloc: map[identity.Address]uint64{user.Address(): 1_000_000},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(api.NewServer(m, false)) // pprof stays off
	defer srv.Close()

	dir := t.TempDir()
	// NoRetry: the disabled envelope is non-retryable anyway, but the
	// profile fetches bypass the envelope logic (raw bytes), so don't
	// spend the retry budget on a node that will keep saying 503.
	cl := api.NewClient(srv.URL, api.WithRetryPolicy(api.NoRetry))
	_, man, err := CaptureRemote(context.Background(), cl, Options{OutDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	failed := map[string]bool{}
	for _, name := range man.Failed() {
		failed[name] = true
	}
	for _, p := range []string{"goroutine", "heap", "mutex", "block"} {
		if !failed[p] {
			t.Fatalf("profile %q captured from a pprof-disabled node", p)
		}
	}
	if failed["metrics"] || failed["metrics_history"] {
		t.Fatalf("metrics artifacts failed: %v", man.Failed())
	}
	// A partial bundle still verifies: failures are recorded, not hidden.
	if _, err := Verify(dir); err != nil {
		t.Fatal(err)
	}
}
