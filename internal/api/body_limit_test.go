package api

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"pds2/internal/crypto"
	"pds2/internal/ledger"
	"pds2/internal/market"
	"pds2/internal/vm"
)

// TestBodyLimit streams a 2 MiB JSON body, never buffered on the client,
// at every route that decodes one: each must answer 413 too_large in the
// standard envelope under its own error prefix, and leave the mempool,
// the head and the state root as they were.
func TestBodyLimit(t *testing.T) {
	srv, m, user := testServer(t, true)
	id := crypto.HashString("body-limit")

	// The largest legitimate body, a deploy envelope carrying a
	// vm.MaxArtifact artifact, fits several times over.
	deploy := ledger.SignTx(user, m.Registry, 0, 0, 1, market.DeployPolicyData(id, make([]byte, vm.MaxArtifact)))
	if b, _ := json.Marshal(TxEnvelope{Tx: deploy}); len(b) > MaxBodyBytes/4 {
		t.Fatalf("a %d-byte deploy envelope leaves too little room under MaxBodyBytes", len(b))
	}

	routes := []struct{ method, path, prefix string }{
		{"POST", "/v1/transactions", "bad transaction: "},
		{"POST", "/v1/views", "bad view request: "},
		{"POST", "/v1/datasets", "bad envelope: "},
		{"PUT", "/v1/datasets/" + id.Hex() + "/policy", "bad envelope: "},
		{"POST", "/v1/contracts", "bad envelope: "},
	}
	pool, height, root := m.Pool.Len(), m.Height(), m.Chain.State().Root()
	for _, rt := range routes {
		body := io.MultiReader(strings.NewReader(`{"x":"`),
			io.LimitReader(zeros{}, 2<<20), strings.NewReader(`"}`))
		req, err := http.NewRequest(rt.method, srv.URL+rt.path, body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", rt.method, rt.path, err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var e apiError
		if resp.StatusCode != http.StatusRequestEntityTooLarge || json.Unmarshal(raw, &e) != nil ||
			e.Error.Code != CodeTooLarge || e.Error.Retryable || !strings.HasPrefix(e.Error.Message, rt.prefix) {
			t.Fatalf("%s %s: %d %s, want 413 %s with prefix %q", rt.method, rt.path, resp.StatusCode, raw, CodeTooLarge, rt.prefix)
		}
	}
	if m.Pool.Len() != pool || m.Height() != height || m.Chain.State().Root() != root {
		t.Fatal("an over-limit body changed the mempool, the head or the state root")
	}
}

// TestResponseLimit streams response bodies of MaxResponseBytes and one
// byte more: the client reads the first in full and fails the second on
// its first attempt with a non-retryable too_large error naming the
// path and the limit.
func TestResponseLimit(t *testing.T) {
	var size, hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		io.Copy(w, io.LimitReader(zeros{}, size.Load()))
	}))
	defer srv.Close()
	c := NewClient(srv.URL)
	ctx := context.Background()

	size.Store(MaxResponseBytes)
	if got, err := c.Pprof(ctx, "heap", 0); err != nil || len(got) != MaxResponseBytes {
		t.Fatalf("a body of exactly the limit: %d bytes, %v", len(got), err)
	}

	size.Store(MaxResponseBytes + 1)
	hits.Store(0)
	_, err := c.Status(ctx)
	var ae *APIError
	if !errors.As(err, &ae) || ae.Code != CodeTooLarge || ae.Retryable {
		t.Fatalf("a body over the limit: %v, want a non-retryable %s APIError", err, CodeTooLarge)
	}
	for _, want := range []string{"/v1/status", strconv.Itoa(MaxResponseBytes)} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %s", err, want)
		}
	}
	if n := hits.Load(); n != 1 {
		t.Fatalf("the over-limit call made %d attempts, want 1", n)
	}
}

// zeros is an endless stream of '0' bytes.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = '0'
	}
	return len(p), nil
}
