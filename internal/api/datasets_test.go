package api

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"strings"
	"testing"

	"pds2/internal/crypto"
	"pds2/internal/market"
	"pds2/internal/policy"
	"pds2/internal/telemetry"
)

// TestDatasetAPILifecycle drives the full dataset surface through the
// client: register, list, detail, policy attachment, and the check
// endpoint — plus the envelope validations that reject mismatched or
// malformed mutation transactions before they spend gas.
func TestDatasetAPILifecycle(t *testing.T) {
	srv, m, user := testServer(t, true)
	c := NewClient(srv.URL, WithRetryPolicy(NoRetry))
	ctx := context.Background()

	dataID := crypto.HashString("api-test/data/1")
	metaHash := crypto.HashString("api-test/meta/1")
	tx := m.SignedTx(user, m.Registry, 0, market.RegisterDataData(dataID, metaHash))
	h, err := c.RegisterDataset(ctx, tx)
	if err != nil {
		t.Fatal(err)
	}
	if h != tx.Hash() {
		t.Fatal("hash mismatch")
	}
	if _, err := c.Seal(ctx); err != nil {
		t.Fatal(err)
	}

	list, err := c.Datasets(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != dataID || list[0].HasPolicy || list[0].Uses != 0 {
		t.Fatalf("datasets = %+v", list)
	}
	det, err := c.Dataset(ctx, dataID)
	if err != nil {
		t.Fatal(err)
	}
	if det.Owner != user.Address() || det.MetaHash != metaHash || det.Policy != nil {
		t.Fatalf("dataset = %+v", det)
	}

	// Unregistered datasets are a 404, not an empty object.
	if _, err := c.Dataset(ctx, crypto.HashString("nope")); err == nil {
		t.Fatal("missing dataset did not error")
	} else if ae := new(APIError); !errors.As(err, &ae) || ae.Code != CodeNotFound {
		t.Fatalf("missing dataset: %v", err)
	}

	pol := &policy.Policy{AllowedClasses: []string{"train"}, MinAggregation: 2, MaxInvocations: 5}
	ptx := m.SignedTx(user, m.Registry, 0, market.SetPolicyData(dataID, pol))
	if _, err := c.SetPolicy(ctx, dataID, ptx); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Seal(ctx); err != nil {
		t.Fatal(err)
	}
	det, err = c.Dataset(ctx, dataID)
	if err != nil {
		t.Fatal(err)
	}
	if det.Policy == nil || det.Policy.MinAggregation != 2 || det.Policy.MaxInvocations != 5 ||
		len(det.Policy.AllowedClasses) != 1 || det.Policy.AllowedClasses[0] != "train" {
		t.Fatalf("policy = %+v", det.Policy)
	}

	dec, err := c.CheckPolicy(ctx, dataID, "", "train", "", 2)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Allowed || dec.Layer != policy.LayerMatch || dec.Code != policy.CodeOK {
		t.Fatalf("check = %+v", dec)
	}

	// Envelope validation: a setPolicy tx whose dataset argument names a
	// different dataset than the path must be rejected client-side.
	other := crypto.HashString("api-test/data/other")
	wrong := m.SignedTx(user, m.Registry, 0, market.SetPolicyData(other, pol))
	if _, err := c.SetPolicy(ctx, dataID, wrong); err == nil {
		t.Fatal("mismatched setPolicy accepted")
	} else if ae := new(APIError); !errors.As(err, &ae) || ae.Code != CodeBadRequest {
		t.Fatalf("mismatched setPolicy: %v", err)
	}
	// A plain transfer is not a registerData call.
	transfer := m.SignedTx(user, user.Address(), 1, nil)
	if _, err := c.RegisterDataset(ctx, transfer); err == nil {
		t.Fatal("transfer accepted as dataset registration")
	} else if ae := new(APIError); !errors.As(err, &ae) || ae.Code != CodeBadRequest {
		t.Fatalf("transfer as registerData: %v", err)
	}
}

// TestPolicyDenialEnvelope pins the deny contract of the API: HTTP 403,
// code "policy_violation", retryable false, and a details object naming
// the violated clause and the enforcement layer.
func TestPolicyDenialEnvelope(t *testing.T) {
	srv, m, user := testServer(t, true)
	c := NewClient(srv.URL, WithRetryPolicy(NoRetry))
	ctx := context.Background()

	dataID := crypto.HashString("api-test/data/deny")
	if _, err := market.MustSucceed(m.SendAndSeal(user, m.Registry, 0,
		market.RegisterDataData(dataID, crypto.HashString("meta")))); err != nil {
		t.Fatal(err)
	}
	pol := &policy.Policy{AllowedClasses: []string{"train"}}
	if _, err := market.MustSucceed(m.SendAndSeal(user, m.Registry, 0,
		market.SetPolicyData(dataID, pol))); err != nil {
		t.Fatal(err)
	}

	_, err := c.CheckPolicy(ctx, dataID, policy.LayerMatch, "stats", "", 1)
	if err == nil {
		t.Fatal("forbidden class allowed")
	}
	ae := new(APIError)
	if !errors.As(err, &ae) {
		t.Fatalf("not an APIError: %v", err)
	}
	if ae.Status != http.StatusForbidden || ae.Code != CodePolicyViolation {
		t.Fatalf("status %d code %q", ae.Status, ae.Code)
	}
	if ae.Retryable {
		t.Fatal("policy violation marked retryable")
	}
	if ae.Details == nil || ae.Details.Clause != policy.ClauseClasses ||
		ae.Details.Layer != policy.LayerMatch || ae.Details.Code != policy.CodeClassForbidden {
		t.Fatalf("details = %+v", ae.Details)
	}
}

// TestPolicyDecisionsPaginationWalk pages through the on-chain decision
// log with a small limit and checks the walk reassembles the full log.
func TestPolicyDecisionsPaginationWalk(t *testing.T) {
	srv, m, user := testServer(t, true)
	c := NewClient(srv.URL, WithRetryPolicy(NoRetry))
	ctx := context.Background()

	dataID := crypto.HashString("api-test/data/page")
	if _, err := market.MustSucceed(m.SendAndSeal(user, m.Registry, 0,
		market.RegisterDataData(dataID, crypto.HashString("meta")))); err != nil {
		t.Fatal(err)
	}
	pol := &policy.Policy{AllowedClasses: []string{"train"}}
	if _, err := market.MustSucceed(m.SendAndSeal(user, m.Registry, 0,
		market.SetPolicyData(dataID, pol))); err != nil {
		t.Fatal(err)
	}
	// Five match-layer probes, alternating allow (train) and deny (stats).
	classes := []string{"train", "stats", "train", "stats", "stats"}
	for _, cl := range classes {
		if _, err := m.SendAndSeal(user, m.Registry, 0,
			market.EnforcePolicyData(policy.LayerMatch, cl, "", 1, dataID)); err != nil {
			t.Fatal(err)
		}
	}

	all, err := c.PolicyDecisions(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(classes) {
		t.Fatalf("%d decisions, want %d", len(all), len(classes))
	}
	var walked []PolicyDecision
	after := ""
	pages := 0
	for {
		page, err := c.PolicyDecisionsPage(ctx, after, 2)
		if err != nil {
			t.Fatal(err)
		}
		if len(page.Items) > 2 {
			t.Fatalf("page of %d items with limit 2", len(page.Items))
		}
		walked = append(walked, page.Items...)
		pages++
		if page.Next == "" {
			break
		}
		after = page.Next
	}
	if pages < 3 {
		t.Fatalf("walk took %d pages, want >= 3", pages)
	}
	if len(walked) != len(all) {
		t.Fatalf("walk got %d decisions, full fetch %d", len(walked), len(all))
	}
	for i, d := range walked {
		want := classes[i] == "train"
		if d.Class != classes[i] || d.Allowed != want || d.DataID != dataID {
			t.Fatalf("decision %d = %+v", i, d)
		}
	}
}

// TestRouteTableMatchesREADME is the documentation drift gate: every
// route the server registers must appear, as "METHOD /path", in the
// README's API reference.
func TestRouteTableMatchesREADME(t *testing.T) {
	_, m, _ := testServer(t, false)
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	text := string(readme)
	for _, rt := range NewServer(m, false).Routes() {
		entry := rt.Method + " " + rt.Path
		if !strings.Contains(text, entry) {
			t.Errorf("route %q is not documented in README.md", entry)
		}
	}
}

// TestUnversionedOperationalRoutesGone pins the one-spelling rule: the
// operational endpoints live only under /v1/, and their former
// un-versioned paths answer the same uniform JSON 404 envelope as any
// other unknown route — not a redirect, not ServeMux's plain text.
func TestUnversionedOperationalRoutesGone(t *testing.T) {
	srv, _, _ := testServer(t, false)
	telemetry.Default().Reset()
	telemetry.Enable()
	defer telemetry.Disable()

	for _, path := range []string{"/metrics", "/metrics/history", "/trace", "/logs"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s: %d, want 404", path, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("GET %s: Content-Type %q", path, ct)
		}
		var e apiError
		if err := json.Unmarshal(body, &e); err != nil || e.Error.Code == "" || e.Error.Message == "" || e.Error.Retryable {
			t.Fatalf("GET %s: body %q is not a non-retryable JSON error envelope", path, body)
		}
	}
	// The /v1/ spellings serve (history is off in this fixture; its /v1/
	// path is covered by TestMetricsHistoryEndpoint).
	for _, path := range []string{"/v1/metrics", "/v1/trace", "/v1/logs"} {
		if code := getJSON(t, srv.URL+path, nil); code != http.StatusOK {
			t.Fatalf("GET %s: %d, want 200", path, code)
		}
	}
}
