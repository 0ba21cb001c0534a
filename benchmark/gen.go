package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"pds2/internal/api"
	"pds2/internal/crypto"
	"pds2/internal/identity"
	"pds2/internal/ledger"
)

// Phases of an HTTP workload. Only steady and sat are measured.
const (
	phaseWarm = iota
	phaseSteady
	phaseSat
	numPhases
)

// txRec is one pre-signed transaction and everything the run learns
// about it. The sender goroutine writes phase/due/acked, the sealer
// goroutine writes the seal and visible times; they are read only after
// both have stopped.
type txRec struct {
	tx     *ledger.Transaction
	hash   crypto.Digest
	route  opKind // which endpoint admits it
	dataID crypto.Digest

	phase int
	acked bool // the node answered 202

	// Nanoseconds since the run's t0.
	dueNS, ackNS, sealStartNS, sealEndNS, visibleNS int64
}

func (t *txRec) committed() bool { return t.visibleNS != 0 }

type opKind uint8

const (
	opTransfer opKind = iota // POST /v1/transactions
	opMint                   // POST /v1/transactions, ERC-20 mint
	opRegisterDataset
	opSetPolicy
	opDeployContract
	opCheck     // GET /v1/datasets/{id}/check
	opLifecycle // workload deploy → list, or cancel of an expired one
	opReadAccount
	opReadReceipt
	opReadStatus
	opReadBlock
)

func (k opKind) isRead() bool { return k == opCheck || k >= opReadAccount }

// workloadTxs is the pre-signed transaction triple of one marketplace
// workload: deploy and list go out together; cancel follows once the
// chain has passed the expiry height.
type workloadTxs struct {
	deploy, list, cancel *txRec
	expiry               uint64
}

// op is one generated operation. Timed ops carry a due offset from the
// phase start; filler ops (closed loop) are issued back to back.
type op struct {
	kind opKind
	due  time.Duration

	tx *txRec       // transaction ops
	wl *workloadTxs // opLifecycle

	addr      identity.Address // opReadAccount
	dataID    crypto.Digest    // opCheck
	class     string           // opCheck
	wantAllow bool             // opCheck: scripted verdict
	pick      uint64           // opReadReceipt / opReadBlock: resolved against live state
}

// feed lets read ops target what has committed: the sealer appends each
// block's hashes, readers pick among those at least two blocks old.
type feed struct {
	mu     sync.Mutex
	hashes []crypto.Digest
	ends   []int // hashes length after each block
}

func (f *feed) add(hashes []crypto.Digest) {
	f.mu.Lock()
	f.hashes = append(f.hashes, hashes...)
	f.ends = append(f.ends, len(f.hashes))
	f.mu.Unlock()
}

// seed makes the given hashes settled from the start (set-up blocks).
func (f *feed) seed(hashes []crypto.Digest) {
	f.add(hashes)
	f.add(nil)
	f.add(nil)
}

// settled returns a hash committed at least two blocks ago.
func (f *feed) settled(pick uint64) (crypto.Digest, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.ends) < 3 || f.ends[len(f.ends)-3] == 0 {
		return crypto.Digest{}, false
	}
	return f.hashes[pick%uint64(f.ends[len(f.ends)-3])], true
}

// phaseStats is what one sender measured in one phase.
type phaseStats struct {
	attempted, failed int
	admitMS           samples // due → 202, tx posts
	readMS            samples // due → 200, reads
	lateMS            samples // send − due, timed ops only
	reads             int     // completed reads (sat throughput)
	firstErr          error
}

func (p *phaseStats) merge(o *phaseStats) {
	p.attempted += o.attempted
	p.failed += o.failed
	p.admitMS = append(p.admitMS, o.admitMS...)
	p.readMS = append(p.readMS, o.readMS...)
	p.lateMS = append(p.lateMS, o.lateMS...)
	p.reads += o.reads
	if p.firstErr == nil {
		p.firstErr = o.firstErr
	}
}

// sender is one generator goroutine with its one keep-alive connection.
// It owns a partition of the accounts, so nonces never race.
type sender struct {
	client  *api.Client
	rec     *recorder
	t0      time.Time
	height  *atomic.Uint64 // last sealed height, published by the sealer
	feed    *feed
	pending []*workloadTxs // deployed, not yet cancelled
	opSeq   int64          // span ref
}

func newSender(url string, rec *recorder, t0 time.Time, height *atomic.Uint64, f *feed) *sender {
	return &sender{
		client: api.NewClient(url,
			api.WithHTTPClient(newHTTPClient(rec != nil)),
			api.WithRetryPolicy(api.NoRetry), // a retry would launder latency
			api.WithTimeout(requestTimeout)),
		rec: rec, t0: t0, height: height, feed: f,
	}
}

// run issues the timed ops on their schedule and, in the gaps, filler
// ops back to back until the deadline. An open-loop phase has only timed
// ops and ends after the last one — late or not, none is shed; a
// closed-loop phase has only filler. Every op is timed from the instant
// it was due: for a timed op its slot, for a filler op the moment the
// client became free.
func (s *sender) run(phase int, start time.Time, timed, filler []*op, deadline time.Time) *phaseStats {
	st := &phaseStats{}
	for len(timed) > 0 || (len(filler) > 0 && time.Now().Before(deadline)) {
		now := time.Now()
		if len(timed) > 0 {
			due := start.Add(timed[0].due)
			if !due.After(now) || len(filler) == 0 || !now.Before(deadline) {
				if wait := due.Sub(now); wait > 0 {
					time.Sleep(wait)
				}
				st.lateMS = append(st.lateMS, ms(time.Since(due)))
				s.exec(timed[0], phase, due, st)
				timed = timed[1:]
				continue
			}
		}
		s.exec(filler[0], phase, now, st)
		filler = filler[1:]
	}
	return st
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func (s *sender) exec(o *op, phase int, due time.Time, st *phaseStats) {
	st.attempted++
	s.opSeq++
	var err error
	switch {
	case o.kind == opLifecycle:
		err = s.lifecycle(o, phase, due, st)
	case o.kind.isRead():
		err = s.read(o)
		st.readMS = append(st.readMS, ms(time.Since(due)))
		if err == nil {
			st.reads++
		}
	default:
		err = s.post(o.tx, phase, due, st)
	}
	if err != nil {
		st.failed++
		if st.firstErr == nil {
			st.firstErr = err
		}
	}
}

// post submits one pre-signed transaction through its endpoint.
func (s *sender) post(t *txRec, phase int, due time.Time, st *phaseStats) error {
	t.phase = phase
	t.dueNS = int64(due.Sub(s.t0))
	id := s.rec.begin(spanClientSubmit, 0, s.opSeq)
	ctx := withSpan(context.Background(), id)
	var err error
	switch t.route {
	case opRegisterDataset:
		_, err = s.client.RegisterDataset(ctx, t.tx)
	case opSetPolicy:
		_, err = s.client.SetPolicy(ctx, t.dataID, t.tx)
	case opDeployContract:
		_, err = s.client.DeployContract(ctx, t.tx)
	default:
		_, err = s.client.SubmitTx(ctx, t.tx)
	}
	t.ackNS = int64(time.Since(s.t0))
	s.rec.end(id)
	if err != nil {
		return err
	}
	t.acked = true
	st.admitMS = append(st.admitMS, float64(t.ackNS-t.dueNS)/1e6)
	return nil
}

// lifecycle cancels the oldest deployed workload once the chain is past
// its expiry, and otherwise deploys and lists a fresh one.
func (s *sender) lifecycle(o *op, phase int, due time.Time, st *phaseStats) error {
	if len(s.pending) > 0 && s.height.Load() > s.pending[0].expiry {
		w := s.pending[0]
		s.pending = s.pending[1:]
		return s.post(w.cancel, phase, due, st)
	}
	if err := s.post(o.wl.deploy, phase, due, st); err != nil {
		return err
	}
	if err := s.post(o.wl.list, phase, due, st); err != nil {
		return err
	}
	s.pending = append(s.pending, o.wl)
	return nil
}

func (s *sender) read(o *op) error {
	id := s.rec.begin(spanClientRead, 0, s.opSeq)
	defer s.rec.end(id)
	ctx := withSpan(context.Background(), id)
	switch o.kind {
	case opReadAccount:
		_, err := s.client.Account(ctx, o.addr)
		return err
	case opReadReceipt:
		h, ok := s.feed.settled(o.pick)
		if !ok {
			return errors.New("no settled transaction to read a receipt of")
		}
		_, err := s.client.Receipt(ctx, h)
		return err
	case opReadStatus:
		_, err := s.client.Status(ctx)
		return err
	case opReadBlock:
		_, err := s.client.Block(ctx, 1+o.pick%s.height.Load())
		return err
	case opCheck:
		_, err := s.client.CheckPolicy(ctx, o.dataID, "", o.class, "", 4)
		var ae *api.APIError
		denied := errors.As(err, &ae) && ae.Code == api.CodePolicyViolation
		switch {
		case o.wantAllow && err == nil, !o.wantAllow && denied:
			return nil
		case err == nil:
			return errors.New("policy check allowed a class the policy forbids")
		}
		return err
	}
	return errors.New("not a read op")
}

// plan is everything set-up generated for one HTTP workload: the ops of
// each phase per sender, and every pre-signed transaction.
type plan struct {
	// timed[phase][sender] and filler[phase][sender].
	timed, filler [numPhases][][]*op
	txs           []*txRec
	byHash        map[crypto.Digest]*txRec
	scheduled     int // timed ops of the measured phases
}

func newPlan(senders int) *plan {
	p := &plan{byHash: make(map[crypto.Digest]*txRec)}
	for ph := 0; ph < numPhases; ph++ {
		p.timed[ph] = make([][]*op, senders)
		p.filler[ph] = make([][]*op, senders)
	}
	return p
}

// digest fingerprints the generated op stream: every op's kind, due
// time and target, in sender and phase order. The same seed must give
// the same digest.
func (p *plan) digest() [sha256.Size]byte {
	h := sha256.New()
	var buf [8]byte
	u64 := func(v uint64) {
		binary.BigEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	tx := func(t *txRec) {
		if t != nil {
			h.Write(t.hash[:])
		}
	}
	for ph := 0; ph < numPhases; ph++ {
		for _, lists := range [][][]*op{p.timed[ph], p.filler[ph]} {
			for si, ops := range lists {
				u64(uint64(ph)<<32 | uint64(si))
				for _, o := range ops {
					u64(uint64(o.kind))
					u64(uint64(o.due))
					tx(o.tx)
					if o.wl != nil {
						tx(o.wl.deploy)
						tx(o.wl.list)
						tx(o.wl.cancel)
						u64(o.wl.expiry)
					}
					h.Write(o.addr[:])
					h.Write(o.dataID[:])
					h.Write([]byte(o.class))
					u64(o.pick)
				}
			}
		}
	}
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}
