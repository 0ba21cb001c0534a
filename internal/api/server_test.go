package api

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"pds2/internal/contract"
	"pds2/internal/crypto"
	"pds2/internal/identity"
	"pds2/internal/ledger"
	"pds2/internal/market"
)

// testServer stands up a market with one funded user behind the API.
func testServer(t *testing.T, allowSeal bool) (*httptest.Server, *market.Market, *identity.Identity) {
	t.Helper()
	user := identity.New("user", crypto.NewDRBGFromUint64(1, "api-test"))
	m, err := market.New(market.Config{
		Seed:         1,
		GenesisAlloc: map[identity.Address]uint64{user.Address(): 1_000_000},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(m, allowSeal))
	t.Cleanup(srv.Close)
	return srv, m, user
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

func TestStatus(t *testing.T) {
	srv, m, _ := testServer(t, false)
	var st StatusResponse
	if code := getJSON(t, srv.URL+"/v1/status", &st); code != http.StatusOK {
		t.Fatalf("status code %d", code)
	}
	if st.Registry != m.Registry || st.Deeds != m.Deeds {
		t.Fatalf("status = %+v", st)
	}
	if st.Height == 0 {
		t.Fatal("height 0 (registry deploy should have advanced the chain)")
	}
}

func TestAccountLookup(t *testing.T) {
	srv, _, user := testServer(t, false)
	var acct AccountResponse
	if code := getJSON(t, srv.URL+"/v1/accounts/"+user.Address().Hex(), &acct); code != http.StatusOK {
		t.Fatalf("code %d", code)
	}
	if acct.Balance != 1_000_000 {
		t.Fatalf("balance %d", acct.Balance)
	}
	if code := getJSON(t, srv.URL+"/v1/accounts/zzzz", nil); code != http.StatusBadRequest {
		t.Fatalf("bad address: code %d", code)
	}
}

func TestSubmitSealReceiptFlow(t *testing.T) {
	srv, m, user := testServer(t, true)
	to := identity.New("to", crypto.NewDRBGFromUint64(2, "api-test"))
	tx := ledger.SignTx(user, to.Address(), 123, 0, 50_000, nil)

	body, _ := json.Marshal(tx)
	resp, err := http.Post(srv.URL+"/v1/transactions", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var sub SubmitResponse
	json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || !sub.Queued {
		t.Fatalf("submit: %d %+v", resp.StatusCode, sub)
	}
	if sub.TxHash != tx.Hash() {
		t.Fatal("hash mismatch")
	}

	// Receipt not yet available.
	if code := getJSON(t, srv.URL+"/v1/receipts/"+tx.Hash().Hex(), nil); code != http.StatusNotFound {
		t.Fatalf("premature receipt: %d", code)
	}

	// Seal and fetch the receipt.
	resp, err = http.Post(srv.URL+"/v1/blocks/seal", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var seal SealResponse
	json.NewDecoder(resp.Body).Decode(&seal)
	resp.Body.Close()
	if seal.Txs != 1 {
		t.Fatalf("sealed %d txs", seal.Txs)
	}
	var rcpt ledger.Receipt
	if code := getJSON(t, srv.URL+"/v1/receipts/"+tx.Hash().Hex(), &rcpt); code != http.StatusOK {
		t.Fatalf("receipt code %d", code)
	}
	if !rcpt.Succeeded() {
		t.Fatalf("receipt failed: %s", rcpt.Err)
	}
	if m.Chain.State().Balance(to.Address()) != 123 {
		t.Fatal("transfer not applied")
	}
}

func TestSealForbiddenOnPublicNode(t *testing.T) {
	srv, _, _ := testServer(t, false)
	resp, err := http.Post(srv.URL+"/v1/blocks/seal", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("code %d", resp.StatusCode)
	}
}

func TestSubmitRejectsInvalidTx(t *testing.T) {
	srv, _, user := testServer(t, false)
	tx := ledger.SignTx(user, identity.ZeroAddress, 0, 0, 50_000, nil)
	tx.Value = 999 // breaks the signature

	body, _ := json.Marshal(tx)
	resp, err := http.Post(srv.URL+"/v1/transactions", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("code %d", resp.StatusCode)
	}
	// Non-JSON body.
	resp, err = http.Post(srv.URL+"/v1/transactions", "application/json", bytes.NewReader([]byte("junk")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("code %d", resp.StatusCode)
	}
}

// TestConcurrentSubmissions drives the lock-free admission fast path:
// many goroutines POST distinct transactions while another hammers the
// mutex-guarded read endpoints. Meaningful under -race (make ci runs
// it): admission bypasses the server's market mutex by design.
func TestConcurrentSubmissions(t *testing.T) {
	srv, m, _ := testServer(t, false)
	const (
		senders     = 4
		txPerSender = 8
	)
	// Senders are unfunded: admission is stateless, so the pool accepts
	// their transactions regardless of balances.
	ids := make([]*identity.Identity, senders)
	for i := range ids {
		ids[i] = identity.New("c", crypto.NewDRBGFromUint64(uint64(50+i), "api-test"))
	}
	var wg sync.WaitGroup
	errc := make(chan error, senders*txPerSender+1)
	for _, id := range ids {
		wg.Add(1)
		go func(id *identity.Identity) {
			defer wg.Done()
			for n := uint64(0); n < txPerSender; n++ {
				tx := ledger.SignTx(id, identity.ZeroAddress, 0, n, 50_000, nil)
				body, _ := json.Marshal(tx)
				resp, err := http.Post(srv.URL+"/v1/transactions", "application/json", bytes.NewReader(body))
				if err != nil {
					errc <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusAccepted {
					errc <- fmt.Errorf("submit code %d", resp.StatusCode)
					return
				}
			}
		}(id)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			resp, err := http.Get(srv.URL + "/v1/status")
			if err != nil {
				errc <- err
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errc <- fmt.Errorf("status code %d", resp.StatusCode)
				return
			}
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if got := m.Pool.Len(); got != senders*txPerSender {
		t.Fatalf("pool depth %d, want %d", got, senders*txPerSender)
	}
}

func TestBlocksEndpoint(t *testing.T) {
	srv, _, _ := testServer(t, false)
	var block ledger.Block
	if code := getJSON(t, srv.URL+"/v1/blocks/1", &block); code != http.StatusOK {
		t.Fatalf("code %d", code)
	}
	if block.Header.Height != 1 {
		t.Fatalf("height %d", block.Header.Height)
	}
	if code := getJSON(t, srv.URL+"/v1/blocks/9999", nil); code != http.StatusNotFound {
		t.Fatalf("missing block code %d", code)
	}
	if code := getJSON(t, srv.URL+"/v1/blocks/abc", nil); code != http.StatusBadRequest {
		t.Fatalf("bad height code %d", code)
	}
}

func TestEventsEndpoint(t *testing.T) {
	srv, m, _ := testServer(t, false)
	var events EventsResponse
	if code := getJSON(t, srv.URL+"/v1/events", &events); code != http.StatusOK {
		t.Fatalf("code %d", code)
	}
	// Registry deploy leaves no events, but the endpoint returns [].
	if events.Items == nil {
		t.Fatal("nil events")
	}
	url := fmt.Sprintf("%s/v1/events?contract=%s&topic=Transfer", srv.URL, m.Registry.Hex())
	if code := getJSON(t, url, &events); code != http.StatusOK {
		t.Fatalf("filtered code %d", code)
	}
	if code := getJSON(t, srv.URL+"/v1/events?limit=bogus", nil); code != http.StatusBadRequest {
		t.Fatalf("bad limit code %d", code)
	}
	if code := getJSON(t, srv.URL+"/v1/events?after=x", nil); code != http.StatusBadRequest {
		t.Fatalf("bad cursor code %d", code)
	}
}

func TestWorkloadEndpoints(t *testing.T) {
	srv, m, user := testServer(t, false)

	// Drive a workload through the API-backed market directly.
	consumer, err := market.NewConsumer(m, user)
	if err != nil {
		t.Fatal(err)
	}
	params := market.TrainerParams{Dim: 4, Epochs: 1, Lambda: 1e-3}
	spec := &market.Spec{
		Predicate:      `category isa "sensor"`,
		MinProviders:   1,
		MinItems:       1,
		ExpiryHeight:   m.Height() + 1000,
		ExecutorFeeBps: 500,
		Measurement:    market.TrainerMeasurement(params.Encode()),
		QAPub:          m.QA.PublicKey(),
		Params:         params.Encode(),
	}
	addr, err := consumer.SubmitWorkload(spec, 5_000)
	if err != nil {
		t.Fatal(err)
	}

	var list WorkloadsResponse
	if code := getJSON(t, srv.URL+"/v1/workloads", &list); code != http.StatusOK {
		t.Fatalf("code %d", code)
	}
	if len(list.Items) != 1 || list.Items[0].Address != addr || list.Items[0].State != "open" {
		t.Fatalf("list = %+v", list)
	}

	var detail WorkloadDetail
	if code := getJSON(t, srv.URL+"/v1/workloads/"+addr.Hex(), &detail); code != http.StatusOK {
		t.Fatalf("code %d", code)
	}
	if detail.Predicate != spec.Predicate || detail.MinProviders != 1 || detail.State != "open" {
		t.Fatalf("detail = %+v", detail)
	}
	if detail.ResultHash != nil {
		t.Fatal("phantom result hash")
	}

	// Non-workload address 404s.
	other := identity.New("x", crypto.NewDRBGFromUint64(9, "api-test")).Address()
	if code := getJSON(t, srv.URL+"/v1/workloads/"+other.Hex(), nil); code != http.StatusNotFound {
		t.Fatalf("code %d", code)
	}
}

func TestClientAgainstServer(t *testing.T) {
	srv, m, user := testServer(t, true)
	c := NewClient(srv.URL)
	ctx := context.Background()

	st, err := c.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Registry != m.Registry {
		t.Fatal("client status mismatch")
	}

	acct, err := c.Account(ctx, user.Address())
	if err != nil || acct.Balance != 1_000_000 {
		t.Fatalf("account: %+v %v", acct, err)
	}

	to := identity.New("to", crypto.NewDRBGFromUint64(3, "api-test"))
	tx := ledger.SignTx(user, to.Address(), 77, 0, 50_000, nil)
	hash, err := c.SubmitTx(ctx, tx)
	if err != nil {
		t.Fatal(err)
	}
	if hash != tx.Hash() {
		t.Fatal("hash mismatch")
	}
	// Re-submitting the same transaction is idempotent, not an error.
	if _, err := c.SubmitTx(ctx, tx); err != nil {
		t.Fatalf("idempotent resubmit: %v", err)
	}
	seal, err := c.Seal(ctx)
	if err != nil || seal.Txs != 1 {
		t.Fatalf("seal: %+v %v", seal, err)
	}
	rcpt, err := c.Receipt(ctx, hash)
	if err != nil || !rcpt.Succeeded() {
		t.Fatalf("receipt: %+v %v", rcpt, err)
	}
	block, err := c.Block(ctx, seal.Height)
	if err != nil || len(block.Txs) != 1 {
		t.Fatalf("block: %v", err)
	}
	if _, err := c.Receipt(ctx, crypto.HashString("missing")); err == nil {
		t.Fatal("missing receipt fetched")
	}
	if _, err := c.Events(ctx, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Workloads(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestClientErrorsSurfaceBody(t *testing.T) {
	srv, _, _ := testServer(t, false)
	c := NewClient(srv.URL)
	_, err := c.Seal(context.Background())
	if err == nil || !bytes.Contains([]byte(err.Error()), []byte("sealing disabled")) {
		t.Fatalf("err = %v", err)
	}
	var ae *APIError
	if !errors.As(err, &ae) || ae.Code != CodeForbidden || ae.Retryable {
		t.Fatalf("envelope not surfaced: %#v", err)
	}
}

func TestViewEndpoint(t *testing.T) {
	srv, m, user := testServer(t, false)
	c := NewClient(srv.URL)
	ctx := context.Background()

	// A registry view through the node: role lookup before and after a
	// registration transaction.
	args := contractEncoder().Address(user.Address()).String("consumer").Bytes()
	ret, err := c.View(ctx, user.Address(), m.Registry, "hasRole", args)
	if err != nil {
		t.Fatal(err)
	}
	if contractDecoder(ret).Bool() {
		t.Fatal("phantom role")
	}
	if _, err := market.NewConsumer(m, user); err != nil {
		t.Fatal(err)
	}
	ret, err = c.View(ctx, user.Address(), m.Registry, "hasRole", args)
	if err != nil {
		t.Fatal(err)
	}
	if !contractDecoder(ret).Bool() {
		t.Fatal("role not visible through the view endpoint")
	}

	// Reverting views surface errors.
	if _, err := c.View(ctx, user.Address(), m.Registry, "noSuchMethod", nil); err == nil {
		t.Fatal("unknown method view succeeded")
	}
	// Missing method rejected.
	resp, err := http.Post(srv.URL+"/v1/views", "application/json", bytes.NewReader([]byte(`{}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("code %d", resp.StatusCode)
	}
}

func contractEncoder() *contract.Encoder         { return contract.NewEncoder() }
func contractDecoder(b []byte) *contract.Decoder { return contract.NewDecoder(b) }
