package ledger

import (
	"errors"
	"fmt"

	"pds2/internal/crypto"
	"pds2/internal/identity"
	"pds2/internal/telemetry"
)

// Chain instrumentation: block production latency, per-block batch
// sizes, applied/failed transaction totals and the chain height. All
// are no-ops until telemetry is enabled.
var (
	mSealSeconds   = telemetry.H("ledger.block.seal_seconds", telemetry.TimeBuckets)
	mImportSeconds = telemetry.H("ledger.block.import_seconds", telemetry.TimeBuckets)
	mBlockTxs      = telemetry.H("ledger.block.txs", telemetry.CountBuckets)
	mBlockGas      = telemetry.H("ledger.block.gas", telemetry.GasBuckets)
	mTxApplied     = telemetry.C("ledger.tx.applied_total")
	mTxFailed      = telemetry.C("ledger.tx.failed_total")
	mHeight        = telemetry.G("ledger.block.height")
)

// TxApplier executes a transaction against the state and produces its
// receipt. The ledger ships a plain value-transfer applier; the contract
// runtime (internal/contract) wraps it to dispatch contract creation and
// calls. Apply must leave the state unchanged when it returns an error
// (as opposed to a failed receipt, which may still consume gas).
type TxApplier interface {
	Apply(st *State, tx *Transaction, height uint64) (*Receipt, error)
}

// TransferApplier is the base applier: native token transfers only.
// Transactions carrying data to a non-contract destination fail.
type TransferApplier struct{}

// Apply implements TxApplier.
func (TransferApplier) Apply(st *State, tx *Transaction, height uint64) (*Receipt, error) {
	rcpt := &Receipt{TxHash: tx.Hash(), GasUsed: tx.IntrinsicGas(), Height: height}
	snap := st.Snapshot()
	st.BumpNonce(tx.From)
	if err := st.SubBalance(tx.From, tx.Value); err != nil {
		st.RevertTo(snap)
		st.BumpNonce(tx.From) // failed txs still consume their nonce
		rcpt.Status = StatusFailed
		rcpt.Err = err.Error()
		return rcpt, nil
	}
	if err := st.AddBalance(tx.To, tx.Value); err != nil {
		st.RevertTo(snap)
		st.BumpNonce(tx.From)
		rcpt.Status = StatusFailed
		rcpt.Err = err.Error()
		return rcpt, nil
	}
	rcpt.Status = StatusOK
	return rcpt, nil
}

// ChainConfig parameterizes a Chain.
type ChainConfig struct {
	// Authorities is the proof-of-authority validator set, in rotation
	// order. Block at height h must be proposed (and sealed) by
	// Authorities[(h-1) % len(Authorities)].
	Authorities []identity.Address

	// BlockGasLimit bounds the total gas of a block. Zero selects
	// DefaultBlockGasLimit.
	BlockGasLimit uint64

	// Applier executes transactions. Nil selects TransferApplier.
	Applier TxApplier

	// Genesis allocations: balances credited at height 0.
	GenesisAlloc map[identity.Address]uint64

	// StatelessWorkers bounds the worker pool used for the stateless
	// verification phase (the proposer seal, the tx root and each
	// transaction's signature, sender binding and intrinsic-gas checks).
	// Zero selects GOMAXPROCS; one forces the sequential path, on which
	// no worker goroutine is started. Transactions are handed out in
	// chunks, so a small batch verifies sequentially either way.
	StatelessWorkers int
}

// DefaultBlockGasLimit matches the order of magnitude of Ethereum blocks.
const DefaultBlockGasLimit uint64 = 30_000_000

// Chain is a validated proof-of-authority blockchain with its world
// state, receipts and a queryable event log.
type Chain struct {
	cfg      ChainConfig
	blocks   []*Block
	base     uint64 // height of blocks[0]: 0 for genesis, >0 when restored from a snapshot
	state    *State
	receipts map[crypto.Digest]*Receipt
	events   []Event // flat, append-only audit log across all blocks

	// onCommit, when set, observes every block the moment it commits
	// (seal and import alike) — the durable-store hook. It runs under
	// whatever lock serializes chain mutation.
	onCommit func(*Block)
}

// NewChain creates a chain with a genesis block at height 0.
func NewChain(cfg ChainConfig) (*Chain, error) {
	if len(cfg.Authorities) == 0 {
		return nil, errors.New("ledger: proof of authority requires at least one authority")
	}
	if cfg.BlockGasLimit == 0 {
		cfg.BlockGasLimit = DefaultBlockGasLimit
	}
	if cfg.Applier == nil {
		cfg.Applier = TransferApplier{}
	}
	st := NewState()
	st.load(cfg.GenesisAlloc, nil, nil)
	genesis := &Block{Header: Header{
		Height:    0,
		StateRoot: st.Root(),
	}}
	return &Chain{
		cfg:      cfg,
		blocks:   []*Block{genesis},
		state:    st,
		receipts: make(map[crypto.Digest]*Receipt),
	}, nil
}

// Height returns the height of the latest block.
func (c *Chain) Height() uint64 { return c.blocks[len(c.blocks)-1].Header.Height }

// GasLimit returns the per-block gas limit this chain enforces.
func (c *Chain) GasLimit() uint64 { return c.cfg.BlockGasLimit }

// Head returns the latest block.
func (c *Chain) Head() *Block { return c.blocks[len(c.blocks)-1] }

// Base returns the height of the oldest block this chain holds: 0 for
// a chain grown from genesis, the snapshot height for a chain restored
// through NewChainFromSnapshot (earlier blocks are pruned).
func (c *Chain) Base() uint64 { return c.base }

// SetOnCommit installs a hook observing every committed block — the
// durable chain store's append point (nil removes it). The hook runs
// after the block and its receipts are recorded, under the caller's
// chain-serialization lock, so it must not call back into the chain.
func (c *Chain) SetOnCommit(fn func(*Block)) { c.onCommit = fn }

// BlockAt returns the block at the given height. Heights below the
// chain's base (pruned by a snapshot restore) are unavailable.
func (c *Chain) BlockAt(h uint64) (*Block, error) {
	if h < c.base {
		return nil, fmt.Errorf("ledger: block %d pruned (chain restored from snapshot at %d)", h, c.base)
	}
	if h-c.base >= uint64(len(c.blocks)) {
		return nil, fmt.Errorf("ledger: no block at height %d (head %d)", h, c.Height())
	}
	return c.blocks[h-c.base], nil
}

// State returns the live world state. Callers outside block processing
// must treat it as read-only; contract views go through it. State.Root
// updates the cached commitment, so it too belongs to whoever
// serializes chain mutation.
func (c *Chain) State() *State { return c.state }

// Receipt returns the receipt for a transaction hash.
func (c *Chain) Receipt(txHash crypto.Digest) (*Receipt, bool) {
	r, ok := c.receipts[txHash]
	return r, ok
}

// Events returns all audit-log events whose topic matches topic
// (empty string matches all), in chain order.
func (c *Chain) Events(topic string) []Event {
	if topic == "" {
		return append([]Event(nil), c.events...)
	}
	var out []Event
	for _, e := range c.events {
		if e.Topic == topic {
			out = append(out, e)
		}
	}
	return out
}

// EventsFrom returns events emitted by a specific contract, optionally
// filtered by topic.
func (c *Chain) EventsFrom(contract identity.Address, topic string) []Event {
	var out []Event
	for _, e := range c.events {
		if e.Contract != contract {
			continue
		}
		if topic != "" && e.Topic != topic {
			continue
		}
		out = append(out, e)
	}
	return out
}

// expectedProposer returns the authority expected to seal height h.
func (c *Chain) expectedProposer(h uint64) identity.Address {
	return c.cfg.Authorities[(h-1)%uint64(len(c.cfg.Authorities))]
}

// ProposeBlock builds, executes and seals the next block from the given
// candidates, in order. The proposer identity must match the PoA rotation
// for the next height. The chain decides what fits: the block holds the
// longest prefix of txs whose gas stays within BlockGasLimit — block.Txs
// tells the caller what was included, and the rest simply was not
// executed. Only when not even txs[0] fits an empty block does the
// proposal fail with ErrBlockGasLimit. On success the block is appended to
// the chain and its receipts recorded; on any error the state is
// untouched. Candidates that fail stateless verification or carry the
// wrong nonce reject the whole proposal — a correct proposer never offers
// them.
func (c *Chain) ProposeBlock(proposer *identity.Identity, timestamp uint64, txs []*Transaction) (*Block, error) {
	return c.ProposeFromPool(nil, proposer, timestamp, txs)
}

// ProposeFromPool is ProposeBlock for the node whose own mempool the
// candidates came out of: a candidate the pool still holds byte for byte
// as it admitted it (Mempool.vouch) passed VerifyBasic on this node
// already and is not verified again; every other candidate is, exactly as
// in ProposeBlock. A nil pool vouches for nothing. Importers verify every
// signature regardless, so what a wrong vouch could cost is this node's
// own block being rejected, never a bad signature in an accepted chain.
func (c *Chain) ProposeFromPool(pool *Mempool, proposer *identity.Identity, timestamp uint64, txs []*Transaction) (block *Block, err error) {
	// The component label makes seal cost (and everything it calls —
	// execution, root hashing, commit) attributable in CPU profiles.
	telemetry.WithComponent("ledger.seal", func() {
		block, err = c.proposeBlock(pool, proposer, timestamp, txs)
	})
	return block, err
}

func (c *Chain) proposeBlock(pool *Mempool, proposer *identity.Identity, timestamp uint64, txs []*Transaction) (*Block, error) {
	timer := mSealSeconds.Time()
	height := c.Height() + 1
	if c.expectedProposer(height) != proposer.Address() {
		return nil, fmt.Errorf("%w: %s at height %d", ErrBadProposer, proposer.Address().Short(), height)
	}
	parent := c.Head()
	if timestamp <= parent.Header.Timestamp && height > 1 {
		return nil, ErrNonMonotonicTS
	}

	if err := c.checkOne(nil, txs, pool.vouch(txs)).result(); err != nil {
		return nil, err
	}
	snap := c.state.Snapshot()
	receipts, gasUsed, err := c.applyTxs(txs, height)
	if err == nil && len(receipts) == 0 && len(txs) > 0 {
		err = fmt.Errorf("%w: the first transaction alone needs more than %d", ErrBlockGasLimit, c.cfg.BlockGasLimit)
	}
	if err != nil {
		c.state.RevertTo(snap)
		return nil, err
	}
	txs = txs[:len(receipts)]

	block := &Block{
		Header: Header{
			Parent:    parent.Hash(),
			Height:    height,
			Timestamp: timestamp,
			TxRoot:    txRoot(txs),
			StateRoot: c.state.Root(),
			GasUsed:   gasUsed,
		},
		Txs: txs,
	}
	block.seal(proposer)
	c.commitBlock(block, receipts)
	timer.Stop()
	logPool.Info("sealed block",
		telemetry.U64("height", height), telemetry.Int("txs", len(txs)),
		telemetry.U64("gas", gasUsed))
	return block, nil
}

// applyTxs runs the already-stateless-verified transactions one after
// another in block order, enforcing nonces, and stops before the first
// one whose receipt would push the block past BlockGasLimit: that
// transaction is reverted to its own journal mark, the earlier ones
// stand. It returns one receipt per transaction that fit (a list shorter
// than txs means the rest did not) and their total gas, leaving the
// state mutated; the caller owns the block-level snapshot/revert.
// Callers must have the transactions' pure checks (stateless.go) pass
// first — signature and intrinsic checks are not repeated here.
func (c *Chain) applyTxs(txs []*Transaction, height uint64) ([]*Receipt, uint64, error) {
	var gasUsed uint64
	receipts := make([]*Receipt, 0, len(txs))
	for i, tx := range txs {
		if want := c.state.Nonce(tx.From); tx.Nonce != want {
			return nil, 0, fmt.Errorf("ledger: tx %d nonce %d, want %d for %s", i, tx.Nonce, want, tx.From.Short())
		}
		mark := c.state.Snapshot()
		rcpt, err := c.cfg.Applier.Apply(c.state, tx, height)
		if err != nil {
			return nil, 0, fmt.Errorf("ledger: tx %d apply: %w", i, err)
		}
		if gasUsed+rcpt.GasUsed > c.cfg.BlockGasLimit {
			c.state.RevertTo(mark)
			break
		}
		gasUsed += rcpt.GasUsed
		receipts = append(receipts, rcpt)
	}
	return receipts, gasUsed, nil
}

func (c *Chain) commitBlock(block *Block, receipts []*Receipt) {
	c.state.Commit()
	c.blocks = append(c.blocks, block)
	for _, r := range receipts {
		c.receipts[r.TxHash] = r
		c.events = append(c.events, r.Events...)
		if r.Status == StatusOK {
			mTxApplied.Inc()
		} else {
			mTxFailed.Inc()
		}
	}
	mBlockTxs.Observe(float64(len(block.Txs)))
	mBlockGas.Observe(float64(block.Header.GasUsed))
	mHeight.Set(float64(block.Header.Height))
	if c.onCommit != nil {
		c.onCommit(block)
	}
}

// verifyTip checks what a header claims about its place in the chain —
// parent linkage, height, timestamp monotonicity and proposer rotation:
// the header checks that need the tip. The seal and the tx root need only
// the block and are checked with the transactions (stateless.go).
func (c *Chain) verifyTip(h *Header) error {
	parent := c.Head()
	if h.Parent != parent.Hash() {
		return ErrBadParent
	}
	if h.Height != parent.Header.Height+1 {
		return ErrBadHeight
	}
	if h.Height > 1 && h.Timestamp <= parent.Header.Timestamp {
		return ErrNonMonotonicTS
	}
	if c.expectedProposer(h.Height) != h.Proposer {
		return ErrBadProposer
	}
	return nil
}

// executeAndCheck runs the block's transactions against the live state
// and checks the header's gas and state-root commitments. On any error
// the state is rolled back to where it was; on success the journal is
// left open at snap so the caller chooses between commit (import) and
// revert (audit-only verification).
func (c *Chain) executeAndCheck(block *Block) (receipts []*Receipt, snap int, err error) {
	snap = c.state.Snapshot()
	receipts, gasUsed, err := c.applyTxs(block.Txs, block.Header.Height)
	if err == nil && len(receipts) < len(block.Txs) {
		err = fmt.Errorf("%w: tx %d does not fit in %d after %d used",
			ErrBlockGasLimit, len(receipts), c.cfg.BlockGasLimit, gasUsed)
	}
	if err != nil {
		c.state.RevertTo(snap)
		return nil, snap, err
	}
	if gasUsed != block.Header.GasUsed {
		c.state.RevertTo(snap)
		return nil, snap, fmt.Errorf("ledger: gas used %d, header claims %d", gasUsed, block.Header.GasUsed)
	}
	if root := c.state.Root(); root != block.Header.StateRoot {
		c.state.RevertTo(snap)
		return nil, snap, fmt.Errorf("%w: computed %s, header %s", ErrBadStateRoot, root.Short(), block.Header.StateRoot.Short())
	}
	return receipts, snap, nil
}

// admit validates a block whose pure checks are under way against the
// tip and executes it. The order is fixed — parent, height, timestamp,
// proposer, then the precomputed seal, tx root and lowest-index invalid
// transaction, then nonces, gas and state root — so a block wrong in
// several ways reports the same error however far ahead its pure checks
// ran. On success the journal is left open at snap (see executeAndCheck).
func (c *Chain) admit(k *blockChecks) (receipts []*Receipt, snap int, err error) {
	if err := c.verifyTip(&k.block.Header); err != nil {
		return nil, 0, err
	}
	if err := k.result(); err != nil {
		return nil, 0, err
	}
	return c.executeAndCheck(k.block)
}

// VerifyBlock re-validates a sealed block against this chain's tip
// without applying it: header and seal checks, stateless transaction
// verification, then a replay on a snapshot that is reverted before
// returning. Replicas that only audit use this; replicas that follow the
// chain use ImportBlock, which executes the transactions once and keeps
// the result instead of throwing it away.
func (c *Chain) VerifyBlock(block *Block) error {
	_, snap, err := c.admit(c.checkOne(block, block.Txs, nil))
	if err != nil {
		return err
	}
	c.state.RevertTo(snap)
	return nil
}

// ImportBlock validates and appends a block produced by another node: a
// stream of one (see ImportStream). Transactions execute exactly once.
// Any mismatch reverts the state and leaves the chain untouched.
func (c *Chain) ImportBlock(block *Block) error {
	_, err := c.ImportStream(BlocksOf(block))
	return err
}

// BlocksOf is the ImportStream source that yields the given blocks in
// order.
func BlocksOf(blocks ...*Block) func(yield func(*Block) error) error {
	return func(yield func(*Block) error) error {
		for _, b := range blocks {
			if err := yield(b); err != nil {
				return err
			}
		}
		return nil
	}
}

// Read-ahead bounds of a streamed import: how far the producer may run
// ahead of the block being executed, in blocks and in transactions
// (whichever fills first; a single block larger than the transaction
// bound still passes, alone). Constants, not configuration: the window
// only has to cover the jitter between decoding, verifying and executing,
// a few blocks does that on any core count, and sixteen full benchmark
// blocks of decoded transactions are ~3 MiB.
const (
	importWindow    = 16
	importWindowTxs = 8192
)

var (
	errNilBlock      = errors.New("ledger: nil block")
	errImportStopped = errors.New("ledger: import stopped at a rejected block")
)

// ImportStream validates and appends every block source yields, in order,
// as a two-stage pipeline. source runs on a producer goroutine (so
// decoding happens there too) and each block it yields has its pure
// checks — seal, tx root, per-transaction VerifyBasic — handed to a
// worker pool, up to importWindow blocks ahead; the calling goroutine
// does only what needs the chain: it checks each block against the tip,
// reads the finished pure checks back in the serial order (admit),
// executes the block once and commits it. Nothing speculative touches
// the state, so a rejected block just discards the read-ahead.
//
// A rejected block is returned with its error, and the chain stays at the
// block before it; when source itself fails (or yields nil), every block
// it yielded before that is committed first and its error is returned
// unchanged with a nil block. After a rejection yield returns an error,
// which source must pass back.
func (c *Chain) ImportStream(source func(yield func(*Block) error) error) (rejected *Block, err error) {
	// The component label is inherited by the producer and the workers,
	// so a profile attributes the whole pipeline to the import.
	telemetry.WithComponent("ledger.import", func() { rejected, err = c.importStream(source) })
	return rejected, err
}

func (c *Chain) importStream(source func(yield func(*Block) error) error) (*Block, error) {
	pool := c.newChecker()
	var (
		// Both channels have room for the whole window, so neither side
		// ever blocks sending on them: the producer waits only to admit a
		// block to the window.
		checked  = make(chan *blockChecks, importWindow)
		consumed = make(chan int, importWindow) // tx counts of blocks the consumer is done with
		stop     = make(chan struct{})
		srcErr   error
	)
	go func() {
		defer close(checked)
		blocks, txs := 0, 0 // yielded and not yet known consumed
		srcErr = source(func(b *Block) error {
			if b == nil {
				return errNilBlock
			}
			for blocks >= importWindow || (blocks > 0 && txs+len(b.Txs) > importWindowTxs) {
				select {
				case n := <-consumed:
					blocks--
					txs -= n
				case <-stop:
					return errImportStopped
				}
			}
			select {
			case <-stop:
				return errImportStopped
			default:
			}
			blocks++
			txs += len(b.Txs)
			checked <- pool.check(b, b.Txs, nil)
			return nil
		})
	}()

	var (
		rejected *Block
		err      error
	)
	for {
		// Both clocks start before the block arrives: with one worker the
		// checks run on the producer, so waiting for them is waiting for
		// the handle. Over a stream import_seconds sums to the wall time.
		timer, wait := mImportSeconds.Time(), mVerifyWait.Time()
		k, ok := <-checked
		if !ok {
			break
		}
		if rejected != nil {
			continue // draining until the producer notices stop
		}
		<-k.done
		wait.Stop()
		err = c.importChecked(k)
		timer.Stop()
		if err != nil {
			rejected = k.block
			close(stop)
			continue
		}
		consumed <- len(k.block.Txs)
	}
	pool.stop()
	if rejected == nil {
		err = srcErr
	}
	return rejected, err
}

// importChecked is the consumer's per-block work: admit, then commit.
func (c *Chain) importChecked(k *blockChecks) error {
	receipts, _, err := c.admit(k)
	if err != nil {
		logPool.Error("block import rejected",
			telemetry.U64("height", k.block.Header.Height), telemetry.Err(err))
		return err
	}
	c.commitBlock(k.block, receipts)
	logPool.Info("imported block",
		telemetry.U64("height", k.block.Header.Height), telemetry.Int("txs", len(k.block.Txs)))
	return nil
}
