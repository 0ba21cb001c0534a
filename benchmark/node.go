package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"pds2/internal/api"
	"pds2/internal/chainstore"
	"pds2/internal/crypto"
	"pds2/internal/identity"
	"pds2/internal/ledger"
	"pds2/internal/market"
	"pds2/internal/telemetry"
)

// spanHeader carries the generator's client span id to the handler
// wrapper, which records it as the server span's parent.
const spanHeader = "X-Bench-Span"

// enableNodeTelemetry turns on what cmd/pds2-node turns on by default:
// the registry, the history ring and the runtime sampler. Logs keep
// their formatting cost but go nowhere. Only the HTTP workloads host a
// node; lifecycle_audit uses the packages as a library, telemetry off.
func enableNodeTelemetry() (stop func()) {
	telemetry.Enable()
	_ = telemetry.SetLogSpec("info") // a constant spec cannot fail to parse
	telemetry.DefaultLog().SetOutput(io.Discard)
	telemetry.SetNode("bench-node")
	telemetry.EnableHistory(250*time.Millisecond, telemetry.DefaultHistoryCapacity)
	sampler := telemetry.StartRuntimeSampler(telemetry.Default(), 0)
	return func() {
		sampler.Stop()
		telemetry.DisableHistory()
		telemetry.Disable()
	}
}

// authority derives the benchmark's own proof-of-authority key, so
// replicas in the layer pass share the validator set.
func authority(seed uint64) *identity.Identity {
	return identity.New("bench-authority", crypto.NewDRBGFromUint64(seed, "bench/authority"))
}

func marketConfig(seed uint64, alloc map[identity.Address]uint64) market.Config {
	return market.Config{
		Seed:          seed,
		GenesisAlloc:  alloc,
		Authorities:   []*identity.Identity{authority(seed)},
		MempoolSize:   mempoolSize,
		BlockGasLimit: blockGasLimit,
	}
}

// node is one in-process PDS² node wired the way cmd/pds2-node wires
// it: durable store (fsync on) → market → snapshotting commit hook →
// api.Server behind an http.Server on loopback.
type node struct {
	dir   string
	cfg   market.Config
	store *chainstore.Store
	m     *market.Market
	hs    *http.Server
	url   string
	apiN  *apiCounters

	serveErr chan error
}

// openNode opens the store and the market; the caller may seal set-up
// blocks in process before serve puts the API in front.
func openNode(dir string, cfg market.Config) (*node, error) {
	store, err := chainstore.Open(dir, nil)
	if err != nil {
		return nil, fmt.Errorf("open chain store: %w", err)
	}
	m, err := market.Open(cfg, store)
	if err != nil {
		store.Close()
		return nil, fmt.Errorf("open market: %w", err)
	}
	return &node{dir: dir, cfg: cfg, store: store, m: m}, nil
}

// serve attaches the commit hook and starts the HTTP server. Untraced,
// the hook and the handler are exactly the node's. Traced, the hook is
// the benchmark's own (a span around Store.Append) and the handler is
// wrapped to record one server span per request.
func (n *node) serve(rec *recorder) error {
	if rec == nil {
		n.store.AttachSnapshotting(n.m.Chain, snapshotEvery)
	} else {
		n.m.Chain.SetOnCommit(tracedAppend(rec, n.store))
	}
	var handler http.Handler = api.NewServer(n.m, true)
	if rec != nil {
		n.apiN = &apiCounters{}
		handler = traceHandler(rec, handler, n.apiN)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	n.url = "http://" + ln.Addr().String()
	n.hs = &http.Server{
		Handler:      handler,
		ReadTimeout:  30 * time.Second,
		WriteTimeout: 30 * time.Second,
		IdleTimeout:  2 * time.Minute,
	}
	n.serveErr = make(chan error, 1)
	go func() { n.serveErr <- n.hs.Serve(ln) }()
	return nil
}

// tracedAppend is the traced run's commit hook: the node's own
// (Store.Append, as Attach does it) inside a span that hangs off the
// seal request in flight, if there is one.
func tracedAppend(rec *recorder, store *chainstore.Store) func(*ledger.Block) {
	return func(b *ledger.Block) {
		id := rec.begin(spanAppend, rec.sealSpan.Load(), int64(b.Header.Height))
		_ = store.Append(b) // recorded by the store's health, as in Attach
		rec.end(id)
	}
}

// stopServing shuts the HTTP server down and waits for its handlers.
func (n *node) stopServing() error {
	if n.hs == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := n.hs.Shutdown(ctx)
	if serr := <-n.serveErr; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	n.hs = nil
	return err
}

// close stops serving and closes the store.
func (n *node) close() error {
	err := n.stopServing()
	if cerr := n.store.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// apiCounters are the counts the handler wrapper takes.
type apiCounters struct {
	requests, failed, shed atomic.Int64
}

// routeSpan classifies a request into the span name of its route class.
func routeSpan(r *http.Request) spanName {
	p := r.URL.Path
	switch {
	case r.Method == http.MethodPost && p == "/v1/blocks/seal":
		return spanServerSeal
	case r.Method == http.MethodPost || r.Method == http.MethodPut:
		return spanServerSubmit
	case p == "/v1/status":
		return spanServerStatus
	case r.Method == http.MethodGet && strings.HasPrefix(p, "/v1/"):
		return spanServerRead
	}
	return spanServerOther
}

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

// traceHandler records a server span around every request and counts
// requests, failures and 429s where they are answered. A 403 from a
// policy check is the policy working, not a failure.
func traceHandler(rec *recorder, next http.Handler, n *apiCounters) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 32)
		name := routeSpan(r)
		id := rec.begin(name, uint32(parent), 0)
		if name == spanServerSeal {
			rec.sealSpan.Store(id)
		}
		sw := &statusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r)
		rec.end(id)
		n.requests.Add(1)
		switch {
		case sw.status == http.StatusTooManyRequests:
			n.shed.Add(1)
			n.failed.Add(1)
		case sw.status >= 400 && !(sw.status == http.StatusForbidden && strings.HasSuffix(r.URL.Path, "/check")):
			n.failed.Add(1)
		}
	})
}

type spanKey struct{}

// withSpan tags a context with the client span the request belongs to.
func withSpan(ctx context.Context, id uint32) context.Context {
	if id == 0 {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, id)
}

// spanTransport copies the client span id from the request context into
// the span header.
type spanTransport struct{ base http.RoundTripper }

func (t spanTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if id, ok := r.Context().Value(spanKey{}).(uint32); ok {
		r = r.Clone(r.Context())
		r.Header.Set(spanHeader, strconv.FormatUint(uint64(id), 10))
	}
	return t.base.RoundTrip(r)
}

// newHTTPClient returns a client holding one keep-alive connection.
func newHTTPClient(traced bool) *http.Client {
	var rt http.RoundTripper = &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		IdleConnTimeout:     time.Minute,
	}
	if traced {
		rt = spanTransport{rt}
	}
	return &http.Client{Transport: rt}
}

// sealedBlock is what the sealer learned about one block it sealed.
type sealedBlock struct {
	height                      uint64
	txs                         int
	sealStart, sealEnd, visible time.Time
}

// sealer is the node's auto-sealer: Status then Seal on a ticker, as in
// cmd/pds2-node. After each seal it fetches the block once to learn
// which transactions committed; the return time of the Seal call is
// their commit time.
type sealer struct {
	client *api.Client
	rec    *recorder
	// onBlock observes every sealed block with its transaction hashes,
	// on the sealer goroutine.
	onBlock func(b sealedBlock, hashes []crypto.Digest)

	height atomic.Uint64 // last sealed height, read by generators

	// Written only by the sealer goroutine; read after halt.
	blocks     []sealedBlock
	depths     []int // pending transactions seen at each tick
	emptyTicks int
	errs       []error

	stop chan struct{}
	done chan struct{}
}

func startSealer(n *node, rec *recorder, onBlock func(sealedBlock, []crypto.Digest)) *sealer {
	s := &sealer{
		client:  api.NewClient(n.url, api.WithHTTPClient(newHTTPClient(rec != nil))),
		rec:     rec,
		onBlock: onBlock,
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	s.height.Store(n.m.Height())
	go s.run()
	return s
}

func (s *sealer) run() {
	defer close(s.done)
	tick := time.NewTicker(blockInterval)
	defer tick.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-tick.C:
		}
		s.tick()
	}
}

// tick is one sealer round.
func (s *sealer) tick() {
	ctx := context.Background()
	st, err := s.client.Status(ctx)
	if err != nil {
		s.errs = append(s.errs, fmt.Errorf("sealer status: %w", err))
		return
	}
	s.depths = append(s.depths, st.Pending)
	if st.Pending == 0 {
		s.emptyTicks++
		return
	}
	id := s.rec.begin(spanClientSeal, 0, 0)
	b := sealedBlock{sealStart: time.Now()}
	resp, err := s.client.Seal(withSpan(ctx, id))
	b.sealEnd = time.Now()
	s.rec.end(id)
	if err != nil {
		s.errs = append(s.errs, fmt.Errorf("sealer seal: %w", err))
		return
	}
	s.rec.setRef(id, int64(resp.Height))
	b.height, b.txs = resp.Height, resp.Txs
	block, err := s.client.Block(ctx, resp.Height)
	b.visible = time.Now()
	if err != nil {
		s.errs = append(s.errs, fmt.Errorf("sealer fetch block %d: %w", resp.Height, err))
		return
	}
	hashes := make([]crypto.Digest, len(block.Txs))
	for i, tx := range block.Txs {
		hashes[i] = tx.Hash()
	}
	s.blocks = append(s.blocks, b)
	s.onBlock(b, hashes)
	s.height.Store(resp.Height)
}

// halt stops the ticker loop and waits for it.
func (s *sealer) halt() {
	close(s.stop)
	<-s.done
}
