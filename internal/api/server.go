// Package api exposes a PDS² governance node over HTTP: chain and
// account inspection, the on-chain audit log, workload directory and
// lifecycle views, signed-transaction submission and (for the node
// operator) block sealing. It is the integration surface a real
// deployment would put in front of internal/market — wallets, provider
// agents and executor daemons all speak this API.
//
// All responses are JSON. The server serializes access to the
// underlying market, which is not safe for concurrent use — except
// transaction admission, which goes straight to the self-synchronized
// mempool so submissions from many clients verify in parallel.
package api

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pds2/internal/contract"
	"pds2/internal/crypto"
	"pds2/internal/identity"
	"pds2/internal/ledger"
	"pds2/internal/market"
	"pds2/internal/telemetry"
)

// API instrumentation: request volume and handler latency, including the
// market-mutex wait, which is what a client actually experiences; plus
// the load-shedding counter pinned by the chaos harness.
var (
	mAPIRequests = telemetry.C("api.requests_total")
	mAPIErrors   = telemetry.C("api.errors_total")
	mAPIShed     = telemetry.C("api.shed_total")
	mAPISeconds  = telemetry.H("api.request_seconds", telemetry.TimeBuckets)
	logAPI       = telemetry.L("api")
)

// TraceHeader carries the caller's span context ("%016x-%016x":
// trace-hash, span-hash) on requests, and the server's own request-span
// context on responses, so client and server spans stitch into one
// distributed trace.
const TraceHeader = "X-PDS2-Trace"

// DefaultRequestTimeout bounds each request's context (except the
// routes flagged flagTimeoutExempt).
const DefaultRequestTimeout = 15 * time.Second

// Server is the HTTP front end of one governance node.
type Server struct {
	mu sync.Mutex
	m  *market.Market

	// AllowSeal enables POST /v1/blocks/seal, which a public gateway
	// would keep disabled (only the authority's own node seals).
	AllowSeal bool

	mux    *http.ServeMux
	health *telemetry.Health

	// draining makes /readyz fail so load balancers stop routing here
	// while in-flight requests finish (graceful shutdown).
	draining atomic.Bool

	// sealSkew, when set, supplies a logical-clock offset applied to
	// the next seal — the fault-injection hook for clock-skew chaos.
	sealSkew func() int64

	// pprofOn gates the /debug/pprof/ routes. They are always mounted
	// (ServeMux cannot unregister) but answer a machine-readable 503
	// until SetPprof(true) — profiling stays an explicit operator
	// decision, never an accidental default on a public gateway.
	pprofOn atomic.Bool

	// lastHeight tracks chain progress between health evaluations for
	// the ledger.chain check. Guarded by s.mu.
	lastHeight uint64
}

// NewServer wraps a market.
func NewServer(m *market.Market, allowSeal bool) *Server {
	s := &Server{m: m, AllowSeal: allowSeal, mux: http.NewServeMux()}
	s.health = telemetry.NewHealth(telemetry.Default())
	s.health.Register("ledger.chain", s.checkChain)
	s.health.Register("ledger.mempool", s.checkMempool)
	s.health.Register("market.executors", market.ExecutorHeartbeat.Check)
	if st := m.Store(); st != nil {
		// Durable node: the disk-backed store participates in the
		// worst-wins aggregate (degraded on slow fsync, unhealthy on
		// write errors), so /readyz stops routing traffic to a node
		// that can no longer persist what it seals.
		s.health.Register("chainstore", st.Health)
	}
	// Every endpoint — including the /debug/pprof/ surface — registers
	// through the declarative route table (see routes.go).
	s.install()
	return s
}

// SetPprof enables or disables the /debug/pprof/ routes at runtime.
func (s *Server) SetPprof(on bool) { s.pprofOn.Store(on) }

// PprofEnabled reports whether the pprof routes are live.
func (s *Server) PprofEnabled() bool { return s.pprofOn.Load() }

// pprofGuard wraps a pprof handler so it answers the standard disabled
// envelope until the operator turns profiling on.
func (s *Server) pprofGuard(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !s.pprofOn.Load() {
			writeErr(w, http.StatusServiceUnavailable, CodeDisabled, "pprof disabled on this node (enable with -pprof)")
			return
		}
		h(w, r)
	}
}

// Health exposes the server's health aggregator so deployments can
// register additional component checks (e.g. gossip connectivity).
func (s *Server) Health() *telemetry.Health { return s.health }

// SetDraining flips the drain flag: a draining node answers /readyz
// with 503 (load balancers stop routing) while every other endpoint
// keeps serving, so in-flight work finishes before Shutdown.
func (s *Server) SetDraining(on bool) { s.draining.Store(on) }

// SetSealSkew installs a fault-injection hook supplying a logical-clock
// offset for each seal (nil removes it). Used by chaos runs to exercise
// the chain's timestamp monotonicity checks.
func (s *Server) SetSealSkew(fn func() int64) { s.sealSkew = fn }

// ServeHTTP implements http.Handler. ServeMux answers unmatched routes
// and wrong methods with plain-text errors; to keep the JSON error
// contract uniform, those verdicts are captured on a probe writer and
// re-emitted through writeErr.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	mAPIRequests.Inc()
	timer := mAPISeconds.Time()
	defer timer.Stop()
	// Continue the caller's trace when the request carries a context;
	// a bad header is ignored (tracing must never fail a request).
	parent, _ := telemetry.ParseSpanContext(r.Header.Get(TraceHeader))
	span := telemetry.StartSpan("api.request", parent)
	if span != nil {
		span.SetAttr("method", r.Method)
		span.SetAttr("path", r.URL.Path)
		w.Header().Set(TraceHeader, span.Context().String())
		defer span.End()
	}
	logAPI.Debug("request", telemetry.Str("method", r.Method), telemetry.Str("path", r.URL.Path))
	// The per-request deadline is applied per route (withTimeout in
	// routes.go), so timeout-exempt routes such as pprof collection are
	// declared in the table instead of special-cased here.
	if _, pattern := s.mux.Handler(r); pattern == "" {
		probe := &probeWriter{header: make(http.Header)}
		s.mux.ServeHTTP(probe, r)
		if allow := probe.header.Get("Allow"); allow != "" {
			w.Header().Set("Allow", allow)
		}
		status := probe.status
		if status == 0 {
			status = http.StatusNotFound
		}
		if status == http.StatusMethodNotAllowed {
			writeErr(w, status, CodeMethodNotAllowed, "method %s not allowed for %s", r.Method, r.URL.Path)
		} else {
			writeErr(w, status, CodeNoRoute, "no route for %s %s", r.Method, r.URL.Path)
		}
		return
	}
	s.mux.ServeHTTP(w, r)
}

// probeWriter records ServeMux's status and headers, discarding the body.
type probeWriter struct {
	header http.Header
	status int
}

func (p *probeWriter) Header() http.Header { return p.header }

func (p *probeWriter) Write(b []byte) (int, error) { return len(b), nil }

func (p *probeWriter) WriteHeader(status int) {
	if p.status == 0 {
		p.status = status
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// fail builds the uniform error envelope as a (status, body) pair — what
// a locked handler returns. Retryability is derived from the code's truth
// table, so clients never have to interpret raw status numbers; det, when
// non-nil, attaches a structured details object (policy denials name
// their violated clause and layer).
func fail(status int, code string, det *ErrorDetails, format string, args ...any) (int, any) {
	mAPIErrors.Inc()
	return status, apiError{Error: ErrorBody{
		Code:      code,
		Message:   fmt.Sprintf(format, args...),
		Retryable: retryableCode[code],
		Details:   det,
	}}
}

// writeErr emits the uniform error envelope.
func writeErr(w http.ResponseWriter, status int, code, format string, args ...any) {
	_, body := fail(status, code, nil, format, args...)
	writeJSON(w, status, body)
}

// MaxBodyBytes bounds every request body the node decodes. The largest
// legitimate body is a deploy envelope carrying a vm.MaxArtifact
// artifact, about 175 KiB as base64.
const MaxBodyBytes = 1 << 20

// decodeBody decodes the JSON request body into v, reading at most
// MaxBodyBytes. On failure it writes the error under the route's prefix
// (413 too_large past the limit, else 400) and returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, prefix string, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxBodyBytes)).Decode(v)
	if err == nil {
		return true
	}
	status, code := http.StatusBadRequest, CodeBadRequest
	if tooLarge := new(http.MaxBytesError); errors.As(err, &tooLarge) {
		status, code = http.StatusRequestEntityTooLarge, CodeTooLarge
	}
	writeErr(w, status, code, "%s: %v", prefix, err)
	return false
}

// locked runs fn holding the market mutex and writes the response it
// returns after releasing it. fn gets no ResponseWriter on purpose:
// encoding to a socket blocks for as long as the client stops reading,
// and under the mutex that would hold every seal until the server's
// write timeout (a context deadline does not interrupt a blocked
// conn.Write). The body fn returns is encoded unlocked, so it must be
// immutable or fn's own copy — committed blocks, receipts and events are.
func (s *Server) locked(w http.ResponseWriter, fn func() (status int, body any)) {
	status, body := func() (int, any) {
		s.mu.Lock()
		defer s.mu.Unlock() // a panicking fn must not leave the node locked
		return fn()
	}()
	writeJSON(w, status, body)
}

// deadlineExceeded answers requests whose context expired before the
// handler could do its work, and reports whether it fired.
func deadlineExceeded(w http.ResponseWriter, r *http.Request) bool {
	if err := r.Context().Err(); err != nil {
		writeErr(w, http.StatusServiceUnavailable, CodeTimeout, "request deadline exceeded: %v", err)
		return true
	}
	return false
}

// StatusResponse is the GET /v1/status body.
type StatusResponse struct {
	Height    uint64           `json:"height"`
	Registry  identity.Address `json:"registry"`
	Deeds     identity.Address `json:"deeds"`
	QAPub     []byte           `json:"qa_pub"`
	Workloads int              `json:"workloads"`
	Pending   int              `json:"pending_txs"`
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	s.locked(w, func() (int, any) {
		// The auto-sealer polls this every block interval: one view for
		// the count, not one per workload.
		n, err := s.m.WorkloadCount()
		if err != nil {
			return fail(http.StatusInternalServerError, CodeInternal, nil, "count workloads: %v", err)
		}
		return http.StatusOK, StatusResponse{
			Height:    s.m.Height(),
			Registry:  s.m.Registry,
			Deeds:     s.m.Deeds,
			QAPub:     s.m.QA.PublicKey(),
			Workloads: int(n),
			Pending:   s.m.Pool.Len(),
		}
	})
}

func (s *Server) handleBlock(w http.ResponseWriter, r *http.Request) {
	h, err := strconv.ParseUint(r.PathValue("height"), 10, 64)
	if err != nil {
		writeErr(w, http.StatusBadRequest, CodeBadRequest, "bad height: %v", err)
		return
	}
	s.locked(w, func() (int, any) {
		block, err := s.m.Chain.BlockAt(h)
		if err != nil {
			return fail(http.StatusNotFound, CodeNotFound, nil, "%v", err)
		}
		return http.StatusOK, block
	})
}

// AccountResponse is the GET /v1/accounts/{addr} body.
type AccountResponse struct {
	Address identity.Address `json:"address"`
	Balance uint64           `json:"balance"`
	Nonce   uint64           `json:"nonce"`
}

func (s *Server) handleAccount(w http.ResponseWriter, r *http.Request) {
	addr, err := identity.AddressFromHex(r.PathValue("addr"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, CodeBadRequest, "bad address: %v", err)
		return
	}
	s.locked(w, func() (int, any) {
		return http.StatusOK, AccountResponse{
			Address: addr,
			Balance: s.m.Chain.State().Balance(addr),
			Nonce:   s.m.Chain.State().Nonce(addr),
		}
	})
}

func (s *Server) handleReceipt(w http.ResponseWriter, r *http.Request) {
	hash, err := crypto.DigestFromHex(r.PathValue("hash"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, CodeBadRequest, "bad hash: %v", err)
		return
	}
	s.locked(w, func() (int, any) {
		rcpt, ok := s.m.Chain.Receipt(hash)
		if !ok {
			return fail(http.StatusNotFound, CodeNotFound, nil, "no receipt for %s", hash.Short())
		}
		return http.StatusOK, rcpt
	})
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	offset, limit, ok := listParams(w, r, offsetCursor)
	if !ok {
		return
	}
	topic := r.URL.Query().Get("topic")
	contractHex := r.URL.Query().Get("contract")
	contractAddr, err := identity.AddressFromHex(contractHex)
	if contractHex != "" && err != nil {
		writeErr(w, http.StatusBadRequest, CodeBadRequest, "bad contract: %v", err)
		return
	}
	s.locked(w, func() (int, any) {
		if contractHex != "" {
			return http.StatusOK, offsetPage(s.m.Chain.EventsFrom(contractAddr, topic), offset, limit)
		}
		return http.StatusOK, offsetPage(s.m.Chain.Events(topic), offset, limit)
	})
}

// WorkloadSummary is one entry of GET /v1/workloads.
type WorkloadSummary struct {
	Address identity.Address `json:"address"`
	State   string           `json:"state"`
}

func (s *Server) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	after, limit, ok := listParams(w, r, keyCursor)
	if !ok {
		return
	}
	s.locked(w, func() (int, any) {
		addrs, err := s.m.Workloads()
		if err != nil {
			return fail(http.StatusInternalServerError, CodeInternal, nil, "%v", err)
		}
		// Lower-case hex sorts as the bytes do.
		slices.SortFunc(addrs, func(a, b identity.Address) int { return bytes.Compare(a[:], b[:]) })
		return http.StatusOK, keyPage(addrs, identity.Address.Hex, after, limit, func(a identity.Address) (WorkloadSummary, bool) {
			st, err := s.m.WorkloadStateOf(a)
			return WorkloadSummary{Address: a, State: st.String()}, err == nil
		})
	})
}

// WorkloadDetail is the GET /v1/workloads/{addr} body.
type WorkloadDetail struct {
	Address      identity.Address `json:"address"`
	State        string           `json:"state"`
	Predicate    string           `json:"predicate"`
	MinProviders uint64           `json:"min_providers"`
	MinItems     uint64           `json:"min_items"`
	ExpiryHeight uint64           `json:"expiry_height"`
	FeeBps       uint64           `json:"executor_fee_bps"`
	Measurement  crypto.Digest    `json:"measurement"`
	Providers    uint64           `json:"providers"`
	Items        uint64           `json:"items"`
	Executors    uint64           `json:"executors"`
	Results      uint64           `json:"results"`
	ResultHash   *crypto.Digest   `json:"result_hash,omitempty"`
}

func (s *Server) handleWorkload(w http.ResponseWriter, r *http.Request) {
	addr, err := identity.AddressFromHex(r.PathValue("addr"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, CodeBadRequest, "bad address: %v", err)
		return
	}
	s.locked(w, func() (int, any) {
		st, err := s.m.WorkloadStateOf(addr)
		if err != nil {
			return fail(http.StatusNotFound, CodeNotFound, nil, "not a workload: %v", err)
		}
		spec, err := s.m.WorkloadSpecOf(addr)
		if err != nil {
			return fail(http.StatusInternalServerError, CodeInternal, nil, "%v", err)
		}
		detail := WorkloadDetail{
			Address:      addr,
			State:        st.String(),
			Predicate:    spec.Predicate,
			MinProviders: spec.MinProviders,
			MinItems:     spec.MinItems,
			ExpiryHeight: spec.ExpiryHeight,
			FeeBps:       spec.ExecutorFeeBps,
			Measurement:  spec.Measurement,
		}
		if raw, err := s.m.View(identity.ZeroAddress, addr, "progress", nil); err == nil {
			d := contract.NewDecoder(raw)
			detail.Providers, detail.Items, detail.Executors, detail.Results = d.Uint64(), d.Uint64(), d.Uint64(), d.Uint64()
		}
		if hash, _, err := s.m.WorkloadResultOf(addr); err == nil && !hash.IsZero() {
			detail.ResultHash = &hash
		}
		return http.StatusOK, detail
	})
}

// SubmitResponse is the POST /v1/transactions body. Committed reports
// that the transaction already executed — the answer a retried
// submission gets when the original landed but its response was lost.
type SubmitResponse struct {
	TxHash    crypto.Digest `json:"tx_hash"`
	Queued    bool          `json:"queued"`
	Committed bool          `json:"committed,omitempty"`
}

func (s *Server) handleSubmitTx(w http.ResponseWriter, r *http.Request) {
	if deadlineExceeded(w, r) {
		return
	}
	var tx ledger.Transaction
	if !decodeBody(w, r, "bad transaction", &tx) {
		return
	}
	h := tx.Hash()
	if key := r.Header.Get(IdempotencyHeader); key != "" && key != h.Hex() {
		writeErr(w, http.StatusBadRequest, CodeBadRequest, "idempotency key %s does not match transaction hash %s", key, h.Hex())
		return
	}
	s.admitTx(w, &tx)
}

// admitTx runs the shared transaction-admission path behind POST
// /v1/transactions and the dataset/policy mutation endpoints:
// idempotency fast paths, lock-free mempool admission, and the
// load-shedding verdicts.
func (s *Server) admitTx(w http.ResponseWriter, tx *ledger.Transaction) {
	h := tx.Hash()
	// Idempotency fast paths: a retried submission whose original
	// attempt actually landed is answered with the cached verdict — the
	// transaction is either still pending or already committed. Either
	// way it is never admitted twice, so a retry can never double-spend
	// the nonce.
	if s.m.Pool.Contains(h) {
		writeJSON(w, http.StatusAccepted, SubmitResponse{TxHash: h, Queued: true})
		return
	}
	s.mu.Lock()
	_, committed := s.m.Chain.Receipt(h)
	s.mu.Unlock()
	if committed {
		writeJSON(w, http.StatusAccepted, SubmitResponse{TxHash: h, Committed: true})
		return
	}
	// Fast path: admission touches only the mempool, which is safe for
	// concurrent use, so handler goroutines admit without the market
	// mutex — signature verification of concurrent submissions runs in
	// parallel instead of queuing behind block sealing.
	err := s.m.Pool.Add(tx)
	if errors.Is(err, ledger.ErrMempoolFull) {
		// Full pool: Market.Submit prunes stale entries against chain
		// state and retries, which needs the market lock.
		s.mu.Lock()
		err = s.m.Submit(tx)
		s.mu.Unlock()
	}
	switch {
	case err == nil:
		writeJSON(w, http.StatusAccepted, SubmitResponse{TxHash: h, Queued: true})
	case errors.Is(err, ledger.ErrMempoolDuplicate):
		// Raced another admission of the same bytes — idempotent success.
		writeJSON(w, http.StatusAccepted, SubmitResponse{TxHash: h, Queued: true})
	case errors.Is(err, ledger.ErrMempoolFull):
		// Load shedding: the pool stayed full even after pruning. Tell
		// the client when to come back instead of letting it hammer us.
		mAPIShed.Inc()
		w.Header().Set("Retry-After", "1")
		writeErr(w, http.StatusTooManyRequests, CodeOverloaded, "%v", err)
	default:
		writeErr(w, http.StatusBadRequest, CodeInvalidTx, "%v", err)
	}
}

// ViewRequest is the POST /v1/views body: a read-only contract call.
// Args carry the ABI-encoded method arguments (base64 in JSON).
type ViewRequest struct {
	Caller identity.Address `json:"caller"`
	To     identity.Address `json:"to"`
	Method string           `json:"method"`
	Args   []byte           `json:"args,omitempty"`
}

// ViewResponse is the POST /v1/views body: the ABI-encoded return value.
type ViewResponse struct {
	Return []byte `json:"return"`
}

func (s *Server) handleView(w http.ResponseWriter, r *http.Request) {
	var req ViewRequest
	if !decodeBody(w, r, "bad view request", &req) {
		return
	}
	if req.Method == "" {
		writeErr(w, http.StatusBadRequest, CodeBadRequest, "missing method")
		return
	}
	s.locked(w, func() (int, any) {
		ret, err := s.m.View(req.Caller, req.To, req.Method, req.Args)
		if err != nil {
			return fail(http.StatusUnprocessableEntity, CodeViewReverted, nil, "view reverted: %v", err)
		}
		return http.StatusOK, ViewResponse{Return: ret}
	})
}

// SealResponse is the POST /v1/blocks/seal body.
type SealResponse struct {
	Height uint64 `json:"height"`
	Txs    int    `json:"txs"`
}

func (s *Server) handleSeal(w http.ResponseWriter, r *http.Request) {
	if !s.AllowSeal {
		writeErr(w, http.StatusForbidden, CodeForbidden, "sealing disabled on this node")
		return
	}
	if deadlineExceeded(w, r) {
		return
	}
	s.locked(w, func() (int, any) {
		ts := s.m.Timestamp() + 1
		if s.sealSkew != nil {
			// Chaos hook: a skewed sealer proposes a block stamped off its
			// own (wrong) clock. The chain's monotonicity check is what
			// actually protects the ledger; the retried seal then lands.
			if v := int64(ts) + s.sealSkew(); v > 0 {
				ts = uint64(v)
			} else {
				ts = 0
			}
		}
		block, err := s.m.SealBlockAt(ts)
		if err != nil {
			return fail(http.StatusInternalServerError, CodeInternal, nil, "%v", err)
		}
		return http.StatusOK, SealResponse{Height: block.Header.Height, Txs: len(block.Txs)}
	})
}

// handleMetrics serves GET /v1/metrics: a JSON snapshot of the process-wide telemetry registry. Counters and gauges
// report their current value; histograms add count/sum/min/max and
// p50/p95/p99. When telemetry is disabled the snapshot would be a
// misleading all-zeros, so the route's flagNeedsTelemetry gate answers
// 503 with a stable JSON error instead.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, telemetry.Default().Snapshot())
}

// handleMetricsHistory serves GET /v1/metrics/history: the node's
// bounded ring of periodic registry snapshots, turning every metric into a time series. ?window=5s trims
// to the trailing window (a Go duration; omit or 0 for the whole ring).
// Nodes that never enabled history answer the same non-retryable
// disabled envelope as a disabled registry.
func (s *Server) handleMetricsHistory(w http.ResponseWriter, r *http.Request) {
	h := telemetry.DefaultHistory()
	if h == nil {
		writeErr(w, http.StatusServiceUnavailable, CodeDisabled, "metrics history disabled on this node (enable with -history-ms)")
		return
	}
	var window time.Duration
	if raw := r.URL.Query().Get("window"); raw != "" {
		var err error
		window, err = time.ParseDuration(raw)
		if err != nil || window < 0 {
			writeErr(w, http.StatusBadRequest, CodeBadRequest, "bad window %q: want a duration like 5s", raw)
			return
		}
	}
	writeJSON(w, http.StatusOK, h.Dump(window))
}

// handleTrace serves GET /v1/trace: the finished spans currently held
// in the tracer's ring buffer, oldest first, with parent linkage
// intact. Like /v1/metrics it answers 503 while telemetry
// is disabled (flagNeedsTelemetry).
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, telemetry.Default().Tracer().Export())
}

// handleLogs serves GET /v1/logs: the structured-log ring, oldest first.
// ?component=X filters to one component; the ring itself is always
// served — an all-off log simply has no events.
func (s *Server) handleLogs(w http.ResponseWriter, r *http.Request) {
	after, limit, ok := listParams(w, r, seqCursor)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, LogPage(r.URL.Query().Get("component"), after, limit))
}

// handleBuildInfo serves GET /v1/buildinfo: the node's Go version, git
// revision, host and CPU shape — the attribution block diag bundles and
// bench reports need to compare numbers across machines and commits. It
// is served even with telemetry disabled; build identity is not a
// metric.
func (s *Server) handleBuildInfo(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, telemetry.CollectBuildInfo())
}

// checkChain verifies the chain exists and reports whether it advanced
// since the previous evaluation — a sealed-but-stuck chain shows up as
// a non-advancing height detail rather than a state change, since many
// deployments legitimately idle between workloads.
func (s *Server) checkChain() telemetry.CheckResult {
	s.mu.Lock()
	defer s.mu.Unlock()
	h := s.m.Height()
	advanced := h > s.lastHeight
	s.lastHeight = h
	if advanced {
		return telemetry.OK(fmt.Sprintf("height %d, advancing", h))
	}
	return telemetry.OK(fmt.Sprintf("height %d", h))
}

// checkMempool flags pool saturation: Degraded at 90% of capacity,
// Unhealthy when full (admissions are being rejected).
func (s *Server) checkMempool() telemetry.CheckResult {
	depth, capacity := s.m.Pool.Len(), s.m.Pool.Cap()
	switch {
	case depth >= capacity:
		return telemetry.UnhealthyResult(fmt.Sprintf("mempool full: %d/%d", depth, capacity))
	case depth*10 >= capacity*9:
		return telemetry.DegradedResult(fmt.Sprintf("mempool at %d/%d", depth, capacity))
	default:
		return telemetry.OK(fmt.Sprintf("%d/%d pending", depth, capacity))
	}
}

// handleHealthz serves GET /healthz: the full component report. The
// status code is 200 unless the node is Unhealthy (503) — a Degraded
// node still serves traffic, so liveness probes must not kill it.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	report := s.health.Evaluate()
	status := http.StatusOK
	if report.Status == telemetry.Unhealthy {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, report)
}

// handleReadyz serves GET /readyz: 200 only when fully Healthy and not
// draining, so load balancers drain Degraded or shutting-down nodes
// while /healthz keeps them alive.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeErr(w, http.StatusServiceUnavailable, CodeUnavailable, "node draining")
		return
	}
	report := s.health.Evaluate()
	status := http.StatusOK
	if report.Status != telemetry.Healthy {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, report)
}
