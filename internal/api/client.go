package api

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"

	"pds2/internal/crypto"
	"pds2/internal/identity"
	"pds2/internal/ledger"
	"pds2/internal/telemetry"
)

// Client-side instrumentation: retry pressure is the first thing to
// look at when a chaos run misbehaves.
var (
	mClientRetries = telemetry.C("api.retries_total")
	mClientCalls   = telemetry.C("api.client.calls_total")
)

// MaxResponseBytes bounds every response body the client reads, so a
// misbehaving server cannot make it buffer without end. It sits well
// above the node's largest bodies: a full metrics-history ring (1,200
// registry snapshots of ≈ 70 metrics at ≤ 250 B of JSON each, so ≤ 21 MB;
// 7 MB measured on a loaded node), a block (calldata costs 16 gas a byte,
// so ≤ 2.5 MB of base64 under a 30 M-gas limit), an events page (1,024
// fixed-layout events of ≤ 250 B) and a pprof profile (≈ 10 KB). Only
// events that each carry megabytes of program-emitted data can push a
// page past it; a smaller ?limit reads them. A body over the limit fails
// the call with a non-retryable CodeTooLarge *APIError naming the path.
const MaxResponseBytes = 64 << 20

// IdempotencyHeader carries the transaction hash on POST
// /v1/transactions, so a retried submission is answered from the
// mempool or the receipt store instead of being treated as new work.
const IdempotencyHeader = "X-PDS2-Idempotency-Key"

// RetryPolicy shapes the client's retry loop: capped exponential
// backoff with jitter, a per-attempt timeout, and a client-wide retry
// budget that stops a fleet of callers from amplifying an outage.
type RetryPolicy struct {
	// MaxAttempts bounds total attempts per call, first try included
	// (<= 0 selects 4; 1 disables retries).
	MaxAttempts int

	// BaseDelay is the backoff before the first retry (<= 0 selects
	// 100ms). Successive retries multiply by Multiplier up to MaxDelay.
	BaseDelay time.Duration

	// MaxDelay caps the backoff (<= 0 selects 2s).
	MaxDelay time.Duration

	// Multiplier grows the backoff between retries (< 1 selects 2).
	Multiplier float64

	// Jitter randomizes each backoff by ±Jitter fraction (< 0 or > 1
	// selects 0.2), decorrelating retry storms across clients.
	Jitter float64

	// PerAttemptTimeout bounds each individual attempt; 0 leaves only
	// the caller's context deadline in force.
	PerAttemptTimeout time.Duration

	// Budget is the client-wide retry allowance: a token bucket with
	// this capacity, where every retry spends one token and every
	// successful call refunds half a token. When the bucket is empty,
	// calls fail after their first attempt instead of piling retries
	// onto a struggling node. <= 0 selects 64; negative values in
	// withDefaults' output never occur.
	Budget int
}

// NoRetry is the single-attempt policy.
var NoRetry = RetryPolicy{MaxAttempts: 1}

// DefaultRetryPolicy returns the policy NewClient starts with.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		MaxAttempts: 4,
		BaseDelay:   100 * time.Millisecond,
		MaxDelay:    2 * time.Second,
		Multiplier:  2,
		Jitter:      0.2,
		Budget:      64,
	}
}

// withDefaults fills zero fields.
func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 100 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 2 * time.Second
	}
	if p.Multiplier < 1 {
		p.Multiplier = 2
	}
	if p.Jitter < 0 || p.Jitter > 1 {
		p.Jitter = 0.2
	}
	if p.Budget <= 0 {
		p.Budget = 64
	}
	return p
}

// Client is the Go client for a PDS² governance node's HTTP API — what
// a provider agent or executor daemon embeds to interact with a remote
// node. It is immutable after construction (configure via Options) and
// safe for concurrent use. Every method takes a context as its first
// argument and respects cancellation at any point, including mid-retry
// backoff.
type Client struct {
	baseURL string
	hc      *http.Client
	trace   telemetry.SpanContext
	retry   RetryPolicy
	timeout time.Duration // per-call overall timeout, 0 = none

	// tokens is the retry budget in half-token units (retry costs 2,
	// success refunds 1), shared across all calls on this client.
	mu     sync.Mutex
	tokens int
	rng    *rand.Rand
}

// Option configures a Client at construction time.
type Option func(*Client)

// WithHTTPClient sets the underlying *http.Client — the hook where the
// fault-injection transport, custom TLS or proxies come in. Nil is
// ignored.
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) {
		if hc != nil {
			c.hc = hc
		}
	}
}

// WithRetryPolicy replaces the default retry policy.
func WithRetryPolicy(p RetryPolicy) Option {
	return func(c *Client) { c.retry = p.withDefaults() }
}

// WithTrace stamps every request with the given span context via the
// X-PDS2-Trace header, stitching server-side spans into the caller's
// distributed trace.
func WithTrace(ctx telemetry.SpanContext) Option {
	return func(c *Client) { c.trace = ctx }
}

// WithTimeout bounds each call end to end (all attempts and backoffs
// included), in addition to whatever deadline the caller's context
// carries.
func WithTimeout(d time.Duration) Option {
	return func(c *Client) { c.timeout = d }
}

// NewClient creates a client for the given node URL. With no options it
// uses http.DefaultClient and DefaultRetryPolicy.
func NewClient(baseURL string, opts ...Option) *Client {
	c := &Client{
		baseURL: baseURL,
		hc:      http.DefaultClient,
		retry:   DefaultRetryPolicy(),
		rng:     rand.New(rand.NewSource(int64(crypto.HashString(baseURL)[0]) + time.Now().UnixNano())),
	}
	for _, o := range opts {
		o(c)
	}
	c.tokens = 2 * c.retry.Budget
	return c
}

// BaseURL returns the node address the client talks to.
func (c *Client) BaseURL() string { return c.baseURL }

// spendRetryToken withdraws one retry from the budget; false means the
// budget is exhausted and the caller must stop retrying.
func (c *Client) spendRetryToken() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.tokens < 2 {
		return false
	}
	c.tokens -= 2
	return true
}

// refundSuccess returns half a token on success, capped at the budget.
func (c *Client) refundSuccess() {
	c.mu.Lock()
	if c.tokens < 2*c.retry.Budget {
		c.tokens++
	}
	c.mu.Unlock()
}

// backoff computes the jittered delay before retry number n (1-based),
// never below the server's Retry-After hint.
func (c *Client) backoff(n int, hint time.Duration) time.Duration {
	d := float64(c.retry.BaseDelay)
	for i := 1; i < n; i++ {
		d *= c.retry.Multiplier
		if d >= float64(c.retry.MaxDelay) {
			break
		}
	}
	if d > float64(c.retry.MaxDelay) {
		d = float64(c.retry.MaxDelay)
	}
	if j := c.retry.Jitter; j > 0 {
		c.mu.Lock()
		f := c.rng.Float64()
		c.mu.Unlock()
		d *= 1 + j*(2*f-1)
	}
	delay := time.Duration(d)
	if delay < hint {
		delay = hint
	}
	return delay
}

// sleep waits for d or until ctx is done.
func sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// call performs one logical API call with retries: capped exponential
// backoff with jitter, per-attempt timeouts, budget accounting, and
// envelope-driven retryability (transport errors and truncated bodies
// are always considered retryable — every endpoint is idempotent by
// construction, transaction submission included via its idempotency
// key). accept is the success predicate over the status code (nil
// accepts any 2xx). It returns the body of the first accepted response,
// fully read; other statuses become *APIError and retry per the
// envelope's retryability.
func (c *Client) call(ctx context.Context, method, path string, body []byte, header http.Header, accept func(int) bool) ([]byte, error) {
	mClientCalls.Inc()
	if c.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.timeout)
		defer cancel()
	}
	var lastErr error
	for attempt := 1; attempt <= c.retry.MaxAttempts; attempt++ {
		if attempt > 1 {
			if !c.spendRetryToken() {
				return nil, fmt.Errorf("api: %s %s: retry budget exhausted: %w", method, path, lastErr)
			}
			mClientRetries.Inc()
			var hint time.Duration
			var ae *APIError
			if errors.As(lastErr, &ae) {
				hint = ae.RetryAfter
			}
			if err := sleep(ctx, c.backoff(attempt-1, hint)); err != nil {
				return nil, fmt.Errorf("api: %s %s: %w", method, path, err)
			}
		}
		out, err := c.once(ctx, method, path, body, header, accept)
		if err == nil {
			c.refundSuccess()
			return out, nil
		}
		if ctx.Err() != nil {
			return nil, fmt.Errorf("api: %s %s: %w", method, path, ctx.Err())
		}
		if ae, ok := err.(*APIError); ok && !ae.Retryable {
			return nil, ae
		}
		lastErr = err
	}
	return nil, fmt.Errorf("api: %s %s: attempts exhausted: %w", method, path, lastErr)
}

// once is a single attempt: issue the request, read the body in full
// up to MaxResponseBytes (so truncated responses fail here, retryably),
// map non-accepted statuses to *APIError.
func (c *Client) once(ctx context.Context, method, path string, body []byte, header http.Header, accept func(int) bool) ([]byte, error) {
	actx := ctx
	if c.retry.PerAttemptTimeout > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, c.retry.PerAttemptTimeout)
		defer cancel()
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(actx, method, c.baseURL+path, rd)
	if err != nil {
		return nil, fmt.Errorf("api: %s %s: %w", method, path, err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	for k, vs := range header {
		req.Header[k] = vs
	}
	if !c.trace.IsZero() {
		req.Header.Set(TraceHeader, c.trace.String())
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("api: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, MaxResponseBytes+1))
	if err != nil {
		return nil, fmt.Errorf("api: %s %s: reading response: %w", method, path, err)
	}
	if len(data) > MaxResponseBytes {
		return nil, &APIError{Path: path, Status: resp.StatusCode, Code: CodeTooLarge,
			Message: fmt.Sprintf("response body exceeds %d bytes", MaxResponseBytes)}
	}
	ok := resp.StatusCode >= 200 && resp.StatusCode <= 299
	if accept != nil {
		ok = accept(resp.StatusCode)
	}
	if !ok {
		return nil, newAPIError(path, resp.StatusCode, resp.Header, data)
	}
	return data, nil
}

// fetch GETs a JSON endpoint and decodes it as a T, retrying per
// policy.
func fetch[T any](ctx context.Context, c *Client, path string) (T, error) {
	var out T
	err := c.send(ctx, http.MethodGet, path, nil, &out, nil)
	return out, err
}

// send marshals in (nil: no body), calls path and decodes the 2xx
// response into out (nil: discard it).
func (c *Client) send(ctx context.Context, method, path string, in, out any, header http.Header) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return err
		}
	}
	data, err := c.call(ctx, method, path, body, header, nil)
	if err != nil || out == nil {
		return err
	}
	return json.Unmarshal(data, out)
}

// submit sends a signed transaction (wrapped in body) with its hash as
// the idempotency key, so retrying after a lost response can never
// double-spend the nonce, and returns the hash the node admitted.
func (c *Client) submit(ctx context.Context, method, path string, tx *ledger.Transaction, body any) (crypto.Digest, error) {
	h := http.Header{}
	h.Set(IdempotencyHeader, tx.Hash().Hex())
	var out SubmitResponse
	if err := c.send(ctx, method, path, body, &out, h); err != nil {
		return crypto.ZeroDigest, err
	}
	return out.TxHash, nil
}

// Status fetches the node status.
func (c *Client) Status(ctx context.Context) (StatusResponse, error) {
	return fetch[StatusResponse](ctx, c, "/v1/status")
}

// Account fetches balance and nonce for an address.
func (c *Client) Account(ctx context.Context, addr identity.Address) (AccountResponse, error) {
	return fetch[AccountResponse](ctx, c, "/v1/accounts/"+addr.Hex())
}

// Block fetches a block by height.
func (c *Client) Block(ctx context.Context, height uint64) (*ledger.Block, error) {
	var out ledger.Block
	if err := c.send(ctx, http.MethodGet, fmt.Sprintf("/v1/blocks/%d", height), nil, &out, nil); err != nil {
		return nil, err
	}
	return &out, nil
}

// Receipt fetches a transaction receipt.
func (c *Client) Receipt(ctx context.Context, hash crypto.Digest) (*ledger.Receipt, error) {
	var out ledger.Receipt
	if err := c.send(ctx, http.MethodGet, "/v1/receipts/"+hash.Hex(), nil, &out, nil); err != nil {
		return nil, err
	}
	return &out, nil
}

// listPath builds a list-endpoint URL with pagination parameters.
func listPath(base string, params ...[2]string) string {
	sep := "?"
	for _, kv := range params {
		if kv[1] == "" {
			continue
		}
		base += sep + kv[0] + "=" + kv[1]
		sep = "&"
	}
	return base
}

// EventsPage fetches one page of the audit log, optionally filtered by
// topic. after is the cursor from a previous page's Next ("" starts
// from the beginning); limit <= 0 selects the server default.
func (c *Client) EventsPage(ctx context.Context, topic, after string, limit int) (EventsResponse, error) {
	return getPage[EventsResponse](ctx, c, "/v1/events", after, limit, [2]string{"topic", topic})
}

// Events fetches the complete audit log (all pages), optionally
// filtered by topic.
func (c *Client) Events(ctx context.Context, topic string) ([]ledger.Event, error) {
	return walk("/v1/events",
		func(after string) (EventsResponse, error) { return c.EventsPage(ctx, topic, after, 0) })
}

// WorkloadsPage fetches one page of the workload directory.
func (c *Client) WorkloadsPage(ctx context.Context, after string, limit int) (WorkloadsResponse, error) {
	return getPage[WorkloadsResponse](ctx, c, "/v1/workloads", after, limit)
}

// Workloads lists the complete workload directory (all pages).
func (c *Client) Workloads(ctx context.Context) ([]WorkloadSummary, error) {
	return walk("/v1/workloads",
		func(after string) (WorkloadsResponse, error) { return c.WorkloadsPage(ctx, after, 0) })
}

// Workload fetches one workload's detail view.
func (c *Client) Workload(ctx context.Context, addr identity.Address) (WorkloadDetail, error) {
	return fetch[WorkloadDetail](ctx, c, "/v1/workloads/"+addr.Hex())
}

// LogsPage fetches one page of the node's structured-log ring
// (component "" fetches every component). after is a LogEvent.Seq
// cursor from a previous page's Next.
func (c *Client) LogsPage(ctx context.Context, component, after string, limit int) (LogsResponse, error) {
	return getPage[LogsResponse](ctx, c, "/v1/logs", after, limit, [2]string{"component", component})
}

// Logs fetches the node's full structured-log ring (all pages).
func (c *Client) Logs(ctx context.Context, component string) (LogsResponse, error) {
	var comps []string
	events, err := walk("/v1/logs", func(after string) (Page[telemetry.LogEvent], error) {
		p, err := c.LogsPage(ctx, component, after, 0)
		comps = p.Components
		return Page[telemetry.LogEvent]{Items: p.Events, Next: p.Next}, err
	})
	if err != nil {
		return LogsResponse{}, err
	}
	return LogsResponse{Components: comps, Events: events}, nil
}

// Healthz fetches the node's component health report. A Degraded or
// Unhealthy node still returns the report (alongside a non-200 status),
// so err is non-nil only for transport or decoding failures — those are
// retried per policy like any other call.
func (c *Client) Healthz(ctx context.Context) (telemetry.HealthReport, error) {
	var out telemetry.HealthReport
	// An Unhealthy node answers 503 with the report attached; that is a
	// meaningful answer, not a failure to retry.
	accept := func(status int) bool {
		return (status >= 200 && status <= 299) || status == http.StatusServiceUnavailable
	}
	data, err := c.call(ctx, http.MethodGet, "/healthz", nil, nil, accept)
	if err != nil {
		return out, err
	}
	err = json.Unmarshal(data, &out)
	return out, err
}

// Metrics fetches the node's telemetry snapshot (GET /v1/metrics):
// counters, gauges and histograms with p50/p95/p99. Load harnesses use
// it to read server-side throughput counters around a run. The node
// answers 503 while telemetry is disabled; that surfaces as an APIError.
func (c *Client) Metrics(ctx context.Context) (telemetry.Snapshot, error) {
	return fetch[telemetry.Snapshot](ctx, c, "/v1/metrics")
}

// BuildInfo fetches the node's build identity (GET /v1/buildinfo).
func (c *Client) BuildInfo(ctx context.Context) (telemetry.BuildInfo, error) {
	return fetch[telemetry.BuildInfo](ctx, c, "/v1/buildinfo")
}

// Trace fetches the node's finished-span ring (GET /v1/trace), oldest
// first. The Collector merges traces from many nodes into one set.
func (c *Client) Trace(ctx context.Context) (telemetry.Trace, error) {
	return fetch[telemetry.Trace](ctx, c, "/v1/trace")
}

// MetricsHistory fetches the node's metrics-history ring (GET
// /v1/metrics/history) — periodic registry snapshots turning every metric
// into a time series. window trims to the trailing window (0 fetches
// the whole ring). A node with history disabled answers a non-retryable
// "disabled" APIError.
func (c *Client) MetricsHistory(ctx context.Context, window time.Duration) (telemetry.HistoryDump, error) {
	path := "/v1/metrics/history"
	if window > 0 {
		path += "?window=" + window.String()
	}
	return fetch[telemetry.HistoryDump](ctx, c, path)
}

// Pprof fetches a profile from the node's /debug/pprof/ surface in raw
// pprof (gzipped protobuf) form — e.g. "goroutine", "heap", "mutex",
// "block", or "profile" with seconds > 0 for a timed CPU profile.
// Profile collection is not idempotent work worth duplicating, so the
// call runs without retries; long CPU captures rely on the server's
// deadline exemption for pprof paths.
func (c *Client) Pprof(ctx context.Context, profile string, seconds int) ([]byte, error) {
	path := "/debug/pprof/" + profile
	if seconds > 0 {
		path += "?seconds=" + strconv.Itoa(seconds)
	}
	mClientCalls.Inc()
	return c.once(ctx, http.MethodGet, path, nil, nil, nil)
}

// SubmitTx queues a signed transaction and returns its hash. The
// request carries the transaction hash as an idempotency key, so
// retrying after a lost response can never double-spend the nonce: the
// server answers an already-admitted or already-committed transaction
// with its cached verdict instead of treating it as new work.
func (c *Client) SubmitTx(ctx context.Context, tx *ledger.Transaction) (crypto.Digest, error) {
	return c.submit(ctx, http.MethodPost, "/v1/transactions", tx, tx)
}

// DatasetsPage fetches one page of the dataset registry.
func (c *Client) DatasetsPage(ctx context.Context, after string, limit int) (DatasetsResponse, error) {
	return getPage[DatasetsResponse](ctx, c, "/v1/datasets", after, limit)
}

// Datasets lists the complete dataset registry (all pages).
func (c *Client) Datasets(ctx context.Context) ([]DatasetSummary, error) {
	return walk("/v1/datasets",
		func(after string) (DatasetsResponse, error) { return c.DatasetsPage(ctx, after, 0) })
}

// Dataset fetches one dataset's detail view, policy included.
func (c *Client) Dataset(ctx context.Context, id crypto.Digest) (DatasetResponse, error) {
	return fetch[DatasetResponse](ctx, c, "/v1/datasets/"+id.Hex())
}

// RegisterDataset submits a pre-signed registerData transaction through
// POST /v1/datasets. Like SubmitTx, the transaction hash rides along as
// an idempotency key, so retries can never double-spend the nonce.
func (c *Client) RegisterDataset(ctx context.Context, tx *ledger.Transaction) (crypto.Digest, error) {
	return c.submit(ctx, http.MethodPost, "/v1/datasets", tx, TxEnvelope{Tx: tx})
}

// SetPolicy submits a pre-signed setPolicy transaction through PUT
// /v1/datasets/{id}/policy. The server rejects (with a client error,
// before any gas is spent) envelopes whose dataset argument does not
// match id or whose policy blob fails validation.
func (c *Client) SetPolicy(ctx context.Context, id crypto.Digest, tx *ledger.Transaction) (crypto.Digest, error) {
	return c.submit(ctx, http.MethodPut, "/v1/datasets/"+id.Hex()+"/policy", tx, TxEnvelope{Tx: tx})
}

// DeployContract submits a pre-signed deployPolicy transaction through
// POST /v1/contracts, binding a compiled policy-program artifact to a
// dataset. The server rejects (with a client error, before any gas is
// spent) envelopes whose artifact fails container decoding or whose
// bytecode does not re-verify against its embedded source.
func (c *Client) DeployContract(ctx context.Context, tx *ledger.Transaction) (crypto.Digest, error) {
	return c.submit(ctx, http.MethodPost, "/v1/contracts", tx, TxEnvelope{Tx: tx})
}

// CheckPolicy evaluates a dataset's usage-control policy without
// consuming an invocation or emitting a decision event. An allow
// returns the decision; a deny returns a non-retryable *APIError with
// code "policy_violation" whose Details name the violated clause and
// enforcement layer. layer "" selects match, class "" the default
// computation class, agg 0 an aggregation of 1.
func (c *Client) CheckPolicy(ctx context.Context, id crypto.Digest, layer, class, purpose string, agg uint64) (PolicyDecision, error) {
	aggStr := ""
	if agg > 0 {
		aggStr = strconv.FormatUint(agg, 10)
	}
	return fetch[PolicyDecision](ctx, c, listPath("/v1/datasets/"+id.Hex()+"/check",
		[2]string{"layer", layer}, [2]string{"class", class},
		[2]string{"purpose", purpose}, [2]string{"agg", aggStr}))
}

// PolicyDecisionsPage fetches one page of the on-chain usage-control
// decision log, oldest first.
func (c *Client) PolicyDecisionsPage(ctx context.Context, after string, limit int) (PolicyDecisionsResponse, error) {
	return getPage[PolicyDecisionsResponse](ctx, c, "/v1/policies/decisions", after, limit)
}

// PolicyDecisions fetches the complete decision log (all pages).
func (c *Client) PolicyDecisions(ctx context.Context) ([]PolicyDecision, error) {
	return walk("/v1/policies/decisions",
		func(after string) (PolicyDecisionsResponse, error) { return c.PolicyDecisionsPage(ctx, after, 0) })
}

// View performs a read-only contract call through the node.
func (c *Client) View(ctx context.Context, caller, to identity.Address, method string, args []byte) ([]byte, error) {
	var out ViewResponse
	req := ViewRequest{Caller: caller, To: to, Method: method, Args: args}
	if err := c.send(ctx, http.MethodPost, "/v1/views", req, &out, nil); err != nil {
		return nil, err
	}
	return out.Return, nil
}

// Seal asks an operator node to seal the pending transactions. Sealing
// is safe to retry: a duplicate seal after a lost response produces at
// worst an additional (possibly empty) block, never a duplicate
// transaction execution.
func (c *Client) Seal(ctx context.Context) (SealResponse, error) {
	var out SealResponse
	err := c.send(ctx, http.MethodPost, "/v1/blocks/seal", nil, &out, nil)
	return out, err
}
