package ledger

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"pds2/internal/telemetry"
)

// A block's pure checks — the proposer seal, the transaction root and
// Transaction.VerifyBasic per transaction (signature, sender binding,
// size, intrinsic gas) — read nothing but the block's own bytes, so they
// can run on any goroutine, in any order and before the chain has
// reached the block's parent. Everything else (parent, height,
// timestamp, rotation, nonces, gas total, state root) needs the tip and
// stays on the goroutine that owns the chain. This file is the one
// implementation of the pure half: a checker fans a block out in chunks
// to a fixed set of workers and the caller reads the results back in the
// order the serial code evaluated them.

var (
	// mStatelessSeconds times one block's pure checks, from submission to
	// the last chunk finishing: one observation per block on every path
	// (propose, verify, import, streamed import).
	mStatelessSeconds = telemetry.H("ledger.block.stateless_seconds", telemetry.TimeBuckets)
	// mVerifyWait times how long an import's executing goroutine waited
	// for its next block to arrive with the pure checks done — read,
	// decoded and verified: near zero while a streamed import keeps ahead
	// of execution, the whole of stateless_seconds for a block imported
	// on its own.
	mVerifyWait = telemetry.H("ledger.import.verify_wait_seconds", telemetry.TimeBuckets)
)

// verifyChunk is the number of transactions one pool task verifies. An
// ed25519 check is tens of microseconds, so eight amortise the hand-off
// to a worker several hundred times over while still splitting a
// thirty-transaction block across every core.
const verifyChunk = 8

// ErrNilTx rejects a block or batch holding a nil transaction pointer
// (a JSON null in an export).
var ErrNilTx = errors.New("ledger: nil transaction")

// blockChecks collects the results of one block's pure checks. The
// fields below done are written by pool tasks and may be read only after
// done is closed.
type blockChecks struct {
	block *Block // nil for a bare candidate batch (ProposeBlock)
	// vouched marks the candidates the proposer's own mempool vouches for
	// (Mempool.vouch); their VerifyBasic is skipped. Nil on every import
	// and verify path: a block from elsewhere is checked in full.
	vouched []bool

	pending atomic.Int32 // tasks still running; the one that reaches zero closes done
	timer   telemetry.Timer
	done    chan struct{}

	seal   error   // verifySeal
	root   error   // ErrBadTxRoot, or ErrNilTx where the root cannot be computed
	chunks []error // per chunk, its lowest-index VerifyBasic failure
}

// result blocks until the checks are in and returns the first failure in
// the order the serial path evaluated them: seal, transaction root, then
// the lowest-index invalid transaction — independent of which worker
// finished first.
func (k *blockChecks) result() error {
	<-k.done
	if k.seal != nil {
		return k.seal
	}
	if k.root != nil {
		return k.root
	}
	for _, err := range k.chunks {
		if err != nil {
			return err
		}
	}
	return nil
}

func (k *blockChecks) finish() {
	if k.pending.Add(-1) == 0 {
		k.timer.Stop()
		close(k.done)
	}
}

// checkHeader is the per-block task: the seal and the transaction root.
func (k *blockChecks) checkHeader() {
	defer k.finish()
	k.seal = k.block.verifySeal()
	if i := slices.Index(k.block.Txs, nil); i >= 0 {
		k.root = fmt.Errorf("ledger: tx %d invalid: %w", i, ErrNilTx)
	} else if txRoot(k.block.Txs) != k.block.Header.TxRoot {
		k.root = ErrBadTxRoot
	}
}

// checkTxs is the per-chunk task: VerifyBasic over txs, the chunk-th run
// of verifyChunk transactions. The chunk stops at its first failure;
// later chunks still run, so the lowest index wins overall.
func (k *blockChecks) checkTxs(chunk int, txs []*Transaction) {
	defer k.finish()
	base := chunk * verifyChunk
	for i, tx := range txs {
		if k.vouched != nil && k.vouched[base+i] {
			continue
		}
		err := ErrNilTx
		if tx != nil {
			err = tx.VerifyBasic()
		}
		if err != nil {
			k.chunks[chunk] = fmt.Errorf("ledger: tx %d invalid: %w", base+i, err)
			return
		}
	}
}

// checker runs pure checks on a fixed set of worker goroutines sized by
// ChainConfig.StatelessWorkers. With one worker it starts no goroutine
// and a task runs where it is submitted — the sequential path.
type checker struct {
	tasks chan func() // nil: run inline
	wg    sync.WaitGroup
}

func (c *Chain) newChecker() *checker {
	workers := c.cfg.StatelessWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &checker{}
	if workers == 1 {
		return p
	}
	// Room for every task a full read-ahead window can hold, so a
	// submitter never waits for a worker to come free (a rendezvous per
	// chunk measurably slowed a 500-transaction seal); what bounds the
	// work in flight is the import's window, not this queue.
	p.tasks = make(chan func(), importWindowTxs/verifyChunk+importWindow)
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer p.wg.Done()
			for task := range p.tasks {
				task()
			}
		}()
	}
	return p
}

// stop waits for every submitted task to finish and for the workers to
// exit.
func (p *checker) stop() {
	if p.tasks != nil {
		close(p.tasks)
		p.wg.Wait()
	}
}

func (p *checker) run(task func()) {
	if p.tasks == nil {
		task()
		return
	}
	p.tasks <- task
}

// check submits the pure checks of txs (but for the vouched ones; nil
// vouches for none) — and, when block is non-nil, of its seal and
// transaction root — and returns at once with the handle their results
// arrive on.
func (p *checker) check(block *Block, txs []*Transaction, vouched []bool) *blockChecks {
	nchunks := (len(txs) + verifyChunk - 1) / verifyChunk
	k := &blockChecks{
		block:   block,
		vouched: vouched,
		timer:   mStatelessSeconds.Time(),
		done:    make(chan struct{}),
		chunks:  make([]error, nchunks),
	}
	tasks := nchunks
	if block != nil {
		tasks++
	}
	k.pending.Store(int32(tasks + 1)) // +1: the submitter's own share, released below, so an empty batch completes too
	if block != nil {
		p.run(k.checkHeader)
	}
	for chunk := 0; chunk < nchunks; chunk++ {
		part := txs[chunk*verifyChunk : min((chunk+1)*verifyChunk, len(txs))]
		p.run(func() { k.checkTxs(chunk, part) })
	}
	k.finish()
	return k
}

// checkOne runs one block's (or, with a nil block, one candidate
// batch's) pure checks to completion on a checker of its own. A batch
// with no more than one chunk of signatures to check — a small one, or
// one its pool vouches for — is checked right here: there is nothing to
// spread, and starting and waking workers showed up in the latency of a
// market lifecycle, whose dozen blocks carry one to three transactions
// each.
func (c *Chain) checkOne(block *Block, txs []*Transaction, vouched []bool) *blockChecks {
	unverified := len(txs)
	for _, v := range vouched {
		if v {
			unverified--
		}
	}
	p := &checker{}
	if unverified > verifyChunk {
		p = c.newChecker()
	}
	defer p.stop()
	return p.check(block, txs, vouched)
}
