package api

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"pds2/internal/chainstore"
	"pds2/internal/market"
)

// HostConfig describes one self-contained node process: the market it
// runs, where (and whether) it persists, where it listens and how often
// it seals.
type HostConfig struct {
	Market market.Config

	// DataDir is the durable chain store directory; empty runs in memory.
	// With a store, a state snapshot is written every SnapshotEvery blocks
	// (0 disables snapshots) and a restart resumes from snapshot + log
	// tail.
	DataDir       string
	SnapshotEvery uint64

	// Listen is the TCP listen address; "127.0.0.1:0" picks a free
	// loopback port (see Host.URL).
	Listen string

	// SealInterval is the auto-seal tick: a block is sealed whenever
	// transactions are pending. 0 leaves sealing to POST /v1/blocks/seal.
	SealInterval time.Duration

	// Pprof serves /debug/pprof/ and widens the write timeout so timed
	// CPU profiles can stream.
	Pprof bool

	// Logf, when set, receives the host's operational messages (store
	// recovery, resume height, auto-seal failures).
	Logf func(format string, args ...any)
}

// Host is a running node: store → market → API server → listener →
// auto-sealer, wired the one way every binary and experiment hosts it.
type Host struct {
	Market *market.Market
	Server *Server
	// URL is the base URL clients (and the host's own sealer) reach the
	// node at.
	URL string
	// ServeErr receives the listener's terminal error, if it fails for
	// any reason other than Stop.
	ServeErr <-chan error

	store      *chainstore.Store
	hs         *http.Server
	stopSealer context.CancelFunc
	sealerDone chan struct{}
}

// StartHost opens (or initialises) the store, builds or restores the
// market, and starts serving and sealing. The caller owns the returned
// host and must Stop or Close it.
func StartHost(cfg HostConfig) (*Host, error) {
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	var store *chainstore.Store
	if cfg.DataDir != "" {
		var err error
		if store, err = chainstore.Open(cfg.DataDir, nil); err != nil {
			return nil, fmt.Errorf("open chain store: %w", err)
		}
		if n := store.RecoveredBytes(); n > 0 {
			logf("chain store: recovered from torn write (%d bytes truncated)", n)
		}
	}
	closeStore := func() {
		if store != nil {
			_ = store.Close() // already failing; the first error is the one reported
		}
	}
	m, err := market.Open(cfg.Market, store)
	if err != nil {
		closeStore()
		return nil, fmt.Errorf("start market: %w", err)
	}
	if store != nil {
		logf("chain store %s: resumed at height %d (base %d)", cfg.DataDir, m.Height(), m.Chain.Base())
		store.AttachSnapshotting(m.Chain, cfg.SnapshotEvery)
	}
	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		closeStore()
		return nil, err
	}

	srv := NewServer(m, true)
	srv.SetPprof(cfg.Pprof)
	// The write timeout caps how long a timed CPU profile can run
	// (/debug/pprof/profile?seconds=N streams after N seconds), so give
	// pprof-enabled nodes room for meaningful captures.
	writeTimeout := 30 * time.Second
	if cfg.Pprof {
		writeTimeout = 2 * time.Minute
	}
	serveErr := make(chan error, 1)
	h := &Host{
		Market:   m,
		Server:   srv,
		URL:      "http://" + dialAddr(ln.Addr().(*net.TCPAddr)),
		ServeErr: serveErr,
		store:    store,
		hs: &http.Server{
			Handler:      srv,
			ReadTimeout:  30 * time.Second,
			WriteTimeout: writeTimeout,
			IdleTimeout:  2 * time.Minute,
		},
		sealerDone: make(chan struct{}),
	}
	go func() {
		if err := h.hs.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			serveErr <- err
		}
	}()

	sealCtx, cancel := context.WithCancel(context.Background())
	h.stopSealer = cancel
	go func() {
		defer close(h.sealerDone)
		if cfg.SealInterval <= 0 {
			return
		}
		client := NewClient(h.URL)
		tick := time.NewTicker(cfg.SealInterval)
		defer tick.Stop()
		for {
			select {
			case <-sealCtx.Done():
				return
			case <-tick.C:
			}
			// Seal through the API so locking is uniform.
			if st, err := client.Status(sealCtx); err == nil && st.Pending > 0 {
				if _, err := client.Seal(sealCtx); err != nil && sealCtx.Err() == nil {
					logf("auto-seal: %v", err)
				}
			}
		}
	}()
	return h, nil
}

// dialAddr is the address a local client dials to reach a listener: a
// wildcard bind (":8547") is reached through localhost.
func dialAddr(a *net.TCPAddr) string {
	if a.IP.IsUnspecified() {
		return fmt.Sprintf("localhost:%d", a.Port)
	}
	return a.String()
}

// Stop stops the sealer and the listener, giving in-flight requests
// until ctx expires to finish. The store is left open — what a killed
// process leaves behind; crash experiments reopen it as found.
func (h *Host) Stop(ctx context.Context) error {
	h.stopSealer()
	<-h.sealerDone
	return h.hs.Shutdown(ctx)
}

// Close is Stop followed by closing the store: a clean shutdown.
func (h *Host) Close(ctx context.Context) error {
	err := h.Stop(ctx)
	if h.store != nil {
		err = errors.Join(err, h.store.Close())
	}
	return err
}
