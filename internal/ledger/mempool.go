package ledger

import (
	"cmp"
	"errors"
	"slices"
	"sync"

	"pds2/internal/crypto"
	"pds2/internal/identity"
	"pds2/internal/telemetry"
)

// Mempool instrumentation: live depth, admission outcomes and the
// lifecycle events that keep the pool healthy under sustained load.
var (
	mPoolDepth    = telemetry.G("ledger.mempool.depth")
	mPoolAdmitted = telemetry.C("ledger.mempool.admitted_total")
	mPoolRejected = telemetry.C("ledger.mempool.rejected_total")
	mPoolEvicted  = telemetry.C("ledger.mempool.evicted_total")
	mPoolOvergas  = telemetry.C("ledger.mempool.evicted_overgas_total")
	mPoolReplaced = telemetry.C("ledger.mempool.replaced_total")
	logPool       = telemetry.L("ledger")
)

// Mempool holds verified pending transactions, ordered per sender by
// nonce. It enforces stateless validity on admission, supports
// same-nonce replacement, evicts transactions made stale by chain
// progress, and hands the block proposer batches of executable
// transactions (those whose nonces chain directly from the sender's
// current account nonce).
//
// All methods are safe for concurrent use: admission (Add), queries and
// removal only touch the pool's own state under its mutex, so API
// handler goroutines can admit transactions without holding whatever
// lock serializes block production. The two methods that read chain
// state — NextBatch and Prune — take a *State; synchronizing that state
// against concurrent block execution remains the caller's job.
type Mempool struct {
	mu       sync.Mutex
	bySender map[identity.Address][]*pooled // sorted by nonce
	byHash   map[crypto.Digest]*pooled
	maxSize  int
}

// pooled is one admitted transaction with the two digests admission
// computed over it. The transaction stays the submitter's object, so the
// pool's own bookkeeping reads the digests, never the transaction again.
type pooled struct {
	tx       *Transaction
	hash     crypto.Digest // tx.Hash() at admission: the byHash key
	verified crypto.Digest // verifiedDigest(tx) at admission
}

// verifiedDigest covers every byte Transaction.VerifyBasic reads — the
// signed fields, the signature and the public key (which Hash leaves
// out) — so a transaction whose digest still equals the one taken when
// VerifyBasic passed would pass it again.
func verifiedDigest(tx *Transaction) crypto.Digest {
	return crypto.HashConcat([]byte("pds2/txverified"), tx.signingBytes(), tx.Sig, tx.Pub)
}

// DefaultMempoolSize bounds the total number of pending transactions.
const DefaultMempoolSize = 100_000

// NewMempool returns an empty mempool. maxSize <= 0 selects the default.
func NewMempool(maxSize int) *Mempool {
	if maxSize <= 0 {
		maxSize = DefaultMempoolSize
	}
	return &Mempool{
		bySender: make(map[identity.Address][]*pooled),
		byHash:   make(map[crypto.Digest]*pooled),
		maxSize:  maxSize,
	}
}

// Mempool errors.
var (
	ErrMempoolFull      = errors.New("ledger: mempool full")
	ErrMempoolDuplicate = errors.New("ledger: transaction already pending")
)

// Add admits a transaction after stateless verification. A transaction
// with the same sender and nonce as a pending one replaces it (the
// newer submission wins — the fee-bump path of public chains, without
// fees); a byte-identical resubmission is rejected with
// ErrMempoolDuplicate.
func (m *Mempool) Add(tx *Transaction) error {
	if err := m.add(tx); err != nil {
		mPoolRejected.Inc()
		return err
	}
	mPoolAdmitted.Inc()
	return nil
}

func (m *Mempool) add(tx *Transaction) error {
	// Verify outside the lock: ed25519 checks dominate admission cost
	// and need nothing from the pool, so concurrent submitters verify
	// in parallel and only serialize for the map updates.
	if err := tx.VerifyBasic(); err != nil {
		return err
	}
	p := &pooled{tx: tx, hash: tx.Hash(), verified: verifiedDigest(tx)}

	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.byHash[p.hash]; ok {
		return ErrMempoolDuplicate
	}
	list := m.bySender[tx.From]
	i, found := searchNonce(list, tx.Nonce)
	if found {
		// Same-nonce replacement: swap in place, no capacity check — the
		// pool does not grow.
		delete(m.byHash, list[i].hash)
		list[i] = p
		m.byHash[p.hash] = p
		mPoolReplaced.Inc()
		return nil
	}
	if len(m.byHash) >= m.maxSize {
		logPool.Warn("mempool full, rejecting transaction",
			telemetry.Int("depth", len(m.byHash)), telemetry.Int("cap", m.maxSize))
		return ErrMempoolFull
	}
	m.bySender[tx.From] = slices.Insert(list, i, p)
	m.byHash[p.hash] = p
	mPoolDepth.Set(float64(len(m.byHash)))
	return nil
}

// searchNonce finds nonce in a sender's nonce-sorted list: its position
// (or where it would be inserted) and whether it is there.
func searchNonce(list []*pooled, nonce uint64) (int, bool) {
	return slices.BinarySearchFunc(list, nonce, func(p *pooled, n uint64) int { return cmp.Compare(p.tx.Nonce, n) })
}

// vouch reports, per candidate, whether the pool holds it exactly as
// admitted: an entry at its sender and nonce whose verification digest
// equals the one recomputed now. Such a transaction passed VerifyBasic
// on this node as the bytes it still is, so the proposer need not run it
// again; a candidate that never passed Add, was replaced or removed, or
// was changed since is left to the checker. One SHA-256 each, no ed25519.
// A nil pool vouches for nothing.
func (m *Mempool) vouch(txs []*Transaction) []bool {
	if m == nil {
		return nil
	}
	vouched := make([]bool, len(txs))
	for i, tx := range txs {
		if tx == nil {
			continue
		}
		d := verifiedDigest(tx) // outside the lock, like admission's hashing
		m.mu.Lock()
		list := m.bySender[tx.From]
		if j, found := searchNonce(list, tx.Nonce); found {
			vouched[i] = list[j].verified == d
		}
		m.mu.Unlock()
	}
	return vouched
}

// Len returns the number of pending transactions.
func (m *Mempool) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.byHash)
}

// Cap returns the pool's admission capacity.
func (m *Mempool) Cap() int { return m.maxSize }

// Contains reports whether a transaction with the given hash is pending.
func (m *Mempool) Contains(h crypto.Digest) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.byHash[h]
	return ok
}

// NextNonce returns the lowest nonce >= chainNonce not occupied by a
// pending transaction from addr — the nonce a wallet should sign with
// next.
func (m *Mempool) NextNonce(addr identity.Address, chainNonce uint64) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := chainNonce
	for _, p := range m.bySender[addr] {
		if p.tx.Nonce < n {
			continue
		}
		if p.tx.Nonce != n {
			break
		}
		n++
	}
	return n
}

// evictStaleLocked drops addr's pending transactions whose nonce is
// below next (already executed on chain — they can never become
// executable again). The per-sender list is nonce-sorted, so stale
// entries form a prefix. Callers hold m.mu.
func (m *Mempool) evictStaleLocked(addr identity.Address, next uint64) int {
	list := m.bySender[addr]
	i := 0
	for i < len(list) && list[i].tx.Nonce < next {
		delete(m.byHash, list[i].hash)
		i++
	}
	if i == 0 {
		return 0
	}
	mPoolEvicted.Add(uint64(i))
	if i == len(list) {
		delete(m.bySender, addr)
	} else {
		m.bySender[addr] = list[i:]
	}
	return i
}

// Prune evicts every transaction whose nonce is below its sender's
// account nonce in st and returns the number evicted. Before this
// existed, such entries occupied capacity forever and a long-running
// node eventually rejected all new traffic with ErrMempoolFull.
func (m *Mempool) Prune(st *State) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	evicted := 0
	for _, addr := range m.sendersLocked() {
		evicted += m.evictStaleLocked(addr, st.Nonce(addr))
	}
	if evicted > 0 {
		mPoolDepth.Set(float64(len(m.byHash)))
		logPool.Info("mempool pruned stale transactions",
			telemetry.Int("evicted", evicted), telemetry.Int("depth", len(m.byHash)))
	}
	return evicted
}

// sendersLocked returns the sender set in deterministic (address)
// order. Callers hold m.mu.
func (m *Mempool) sendersLocked() []identity.Address {
	senders := make([]identity.Address, 0, len(m.bySender))
	for a := range m.bySender {
		senders = append(senders, a)
	}
	sortAddresses(senders)
	return senders
}

// NextBatch returns up to max transactions executable against the given
// state: for each sender, the longest prefix of its pending list whose
// nonces chain from the account nonce. Senders are visited in
// deterministic (address) order. Stale transactions encountered along
// the way are evicted, so the routine seal cadence keeps the pool
// self-pruning. The returned transactions remain in the pool until
// Remove is called — typically after block inclusion.
//
// The pool only bounds the candidates; the chain decides what fits
// (Chain.ProposeBlock seals the longest prefix within the gas limit). Each
// transaction's intrinsic gas — the guaranteed floor of what execution will
// consume, and its exact cost for plain transfers — accumulates against
// gasBudget, and a sender's chain is cut at the first transaction that no
// longer fits, so a transfer backlog hands the chain exactly-full batches
// and only contract calls that burn past their floor are left over.
// Declared gas (tx.GasLimit) is useless as a bound on this fee-less chain:
// wallets default it far above the block gas limit. gasBudget 0 means
// unlimited.
//
// A transaction whose intrinsic gas alone exceeds gasBudget can never be
// sealed — actual consumption only grows from there. Leaving it pending
// would block its sender's lane forever, so it is evicted on sight and
// counted in ledger.mempool.evicted_overgas_total.
func (m *Mempool) NextBatch(st *State, max int, gasBudget uint64) []*Transaction {
	m.mu.Lock()
	defer m.mu.Unlock()
	var batch []*Transaction
	var gas uint64
	evicted, overgas := 0, 0
	for _, sender := range m.sendersLocked() {
		next := st.Nonce(sender)
		evicted += m.evictStaleLocked(sender, next)
		for _, p := range m.bySender[sender] {
			tx := p.tx
			if len(batch) >= max {
				break
			}
			if tx.Nonce != next {
				break // gap: later nonces are not yet executable
			}
			floor := tx.IntrinsicGas()
			if gasBudget > 0 && floor > gasBudget {
				// Poison transaction: it can never fit any block. Evict
				// it; its successors are now gapped and wait for the
				// sender to resubmit the nonce.
				m.dropLocked(tx)
				overgas++
				break
			}
			if gasBudget > 0 && gas+floor > gasBudget {
				break // sender's chain is cut; try remaining senders
			}
			batch = append(batch, tx)
			gas += floor
			next++
		}
		if len(batch) >= max {
			break
		}
	}
	if overgas > 0 {
		mPoolOvergas.Add(uint64(overgas))
		logPool.Warn("mempool evicted transactions exceeding the block gas limit",
			telemetry.Int("evicted", overgas), telemetry.U64("gas_limit", gasBudget))
	}
	if evicted > 0 || overgas > 0 {
		mPoolDepth.Set(float64(len(m.byHash)))
		logPool.Debug("mempool evicted stale transactions in batch build",
			telemetry.Int("evicted", evicted), telemetry.Int("batch", len(batch)))
	}
	return batch
}

// dropLocked removes one transaction from both indexes, if the pool
// holds it: the entry at its sender and nonce must be tx itself or carry
// its hash, so a transaction that was replaced takes nothing with it.
// Callers hold m.mu and own depth-gauge/counter updates.
func (m *Mempool) dropLocked(tx *Transaction) bool {
	list := m.bySender[tx.From]
	i, found := searchNonce(list, tx.Nonce)
	if !found || (list[i].tx != tx && list[i].hash != tx.Hash()) {
		return false
	}
	delete(m.byHash, list[i].hash)
	if len(list) == 1 {
		delete(m.bySender, tx.From)
	} else {
		m.bySender[tx.From] = slices.Delete(list, i, i+1)
	}
	return true
}

// EvictOvergas removes a transaction that proved unsealable — alone in an
// empty block, its execution still exceeds the block gas limit (intrinsic
// gas below it, so NextBatch could not tell) — counting it in
// ledger.mempool.evicted_overgas_total.
func (m *Mempool) EvictOvergas(tx *Transaction) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.dropLocked(tx) {
		return false
	}
	mPoolOvergas.Inc()
	mPoolDepth.Set(float64(len(m.byHash)))
	logPool.Warn("evicted transaction exceeding the block gas limit",
		telemetry.U64("declared_gas", tx.GasLimit))
	return true
}

// Remove deletes the given transactions from the pool, typically after
// they have been included in a block.
func (m *Mempool) Remove(txs []*Transaction) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, tx := range txs {
		m.dropLocked(tx)
	}
	mPoolDepth.Set(float64(len(m.byHash)))
}
