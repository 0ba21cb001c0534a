package ledger

import (
	"errors"
	"sync"
	"testing"

	"pds2/internal/identity"
)

func TestMempoolAddAndBatch(t *testing.T) {
	alice := testIdentity(1)
	bob := testIdentity(2)
	pool := NewMempool(0)
	st := NewState()

	// Out-of-order admission; batch must come out nonce-ordered.
	tx1 := SignTx(alice, bob.Address(), 1, 1, 50_000, nil)
	tx0 := SignTx(alice, bob.Address(), 1, 0, 50_000, nil)
	if err := pool.Add(tx1); err != nil {
		t.Fatal(err)
	}
	if err := pool.Add(tx0); err != nil {
		t.Fatal(err)
	}
	batch := pool.NextBatch(st, 10, 0)
	if len(batch) != 2 || batch[0].Nonce != 0 || batch[1].Nonce != 1 {
		t.Fatalf("batch = %+v", batch)
	}
}

func TestMempoolNonceGapBlocksLaterTxs(t *testing.T) {
	alice := testIdentity(1)
	pool := NewMempool(0)
	st := NewState()
	// Nonces 0 and 2: only nonce 0 is executable.
	pool.Add(SignTx(alice, testIdentity(2).Address(), 1, 0, 50_000, nil))
	pool.Add(SignTx(alice, testIdentity(2).Address(), 1, 2, 50_000, nil))
	batch := pool.NextBatch(st, 10, 0)
	if len(batch) != 1 || batch[0].Nonce != 0 {
		t.Fatalf("batch = %+v", batch)
	}
}

func TestMempoolRespectsStateNonce(t *testing.T) {
	alice := testIdentity(1)
	pool := NewMempool(0)
	st := NewState()
	st.BumpNonce(alice.Address()) // account nonce is now 1
	pool.Add(SignTx(alice, testIdentity(2).Address(), 1, 0, 50_000, nil))
	pool.Add(SignTx(alice, testIdentity(2).Address(), 1, 1, 50_000, nil))
	batch := pool.NextBatch(st, 10, 0)
	if len(batch) != 1 || batch[0].Nonce != 1 {
		t.Fatalf("batch = %+v", batch)
	}
}

func TestMempoolDuplicateRejected(t *testing.T) {
	alice := testIdentity(1)
	pool := NewMempool(0)
	tx := SignTx(alice, testIdentity(2).Address(), 1, 0, 50_000, nil)
	if err := pool.Add(tx); err != nil {
		t.Fatal(err)
	}
	if err := pool.Add(tx); !errors.Is(err, ErrMempoolDuplicate) {
		t.Fatalf("want ErrMempoolDuplicate, got %v", err)
	}
}

func TestMempoolSameNonceReplaces(t *testing.T) {
	alice := testIdentity(1)
	pool := NewMempool(0)
	st := NewState()
	old := SignTx(alice, testIdentity(2).Address(), 1, 0, 50_000, nil)
	if err := pool.Add(old); err != nil {
		t.Fatal(err)
	}
	// Same sender+nonce, different payload: the newer tx wins.
	repl := SignTx(alice, testIdentity(3).Address(), 2, 0, 50_000, nil)
	if err := pool.Add(repl); err != nil {
		t.Fatalf("replacement rejected: %v", err)
	}
	if pool.Len() != 1 {
		t.Fatalf("Len = %d, want 1", pool.Len())
	}
	if pool.Contains(old.Hash()) || !pool.Contains(repl.Hash()) {
		t.Fatal("replacement did not swap the pending tx")
	}
	batch := pool.NextBatch(st, 10, 0)
	if len(batch) != 1 || batch[0].Hash() != repl.Hash() {
		t.Fatalf("batch = %+v", batch)
	}
}

// TestMempoolReplacementAtCapacity checks that replacement is exempt
// from the capacity check: it never grows the pool.
func TestMempoolReplacementAtCapacity(t *testing.T) {
	alice := testIdentity(1)
	pool := NewMempool(1)
	if err := pool.Add(SignTx(alice, testIdentity(2).Address(), 1, 0, 50_000, nil)); err != nil {
		t.Fatal(err)
	}
	repl := SignTx(alice, testIdentity(3).Address(), 2, 0, 50_000, nil)
	if err := pool.Add(repl); err != nil {
		t.Fatalf("replacement at capacity rejected: %v", err)
	}
	if pool.Len() != 1 || !pool.Contains(repl.Hash()) {
		t.Fatal("replacement at capacity did not swap")
	}
}

// TestMempoolStaleEvictionUnclogsPool is the regression test for the
// stale-transaction leak: a pool filled to capacity with transactions
// whose nonces are already consumed on chain must accept new traffic
// again once eviction runs.
func TestMempoolStaleEvictionUnclogsPool(t *testing.T) {
	const cap = 8
	pool := NewMempool(cap)
	st := NewState()
	stale := make([]*identity.Identity, cap)
	for i := range stale {
		stale[i] = testIdentity(uint64(10 + i))
		if err := pool.Add(SignTx(stale[i], testIdentity(2).Address(), 1, 0, 50_000, nil)); err != nil {
			t.Fatal(err)
		}
	}
	// The chain has moved past every pending nonce.
	for _, id := range stale {
		st.BumpNonce(id.Address())
	}
	fresh := SignTx(testIdentity(1), testIdentity(2).Address(), 1, 0, 50_000, nil)
	if err := pool.Add(fresh); !errors.Is(err, ErrMempoolFull) {
		t.Fatalf("want ErrMempoolFull before eviction, got %v", err)
	}
	if n := pool.Prune(st); n != cap {
		t.Fatalf("Prune evicted %d, want %d", n, cap)
	}
	if pool.Len() != 0 {
		t.Fatalf("Len = %d after prune", pool.Len())
	}
	if err := pool.Add(fresh); err != nil {
		t.Fatalf("admission still failing after prune: %v", err)
	}
}

// TestMempoolNextBatchEvictsStale checks the self-pruning path: the
// seal-cadence NextBatch call itself drops already-executed entries.
func TestMempoolNextBatchEvictsStale(t *testing.T) {
	alice := testIdentity(1)
	pool := NewMempool(0)
	st := NewState()
	tx0 := SignTx(alice, testIdentity(2).Address(), 1, 0, 50_000, nil)
	tx1 := SignTx(alice, testIdentity(2).Address(), 1, 1, 50_000, nil)
	pool.Add(tx0)
	pool.Add(tx1)
	st.BumpNonce(alice.Address()) // nonce 0 executed elsewhere
	batch := pool.NextBatch(st, 10, 0)
	if len(batch) != 1 || batch[0].Nonce != 1 {
		t.Fatalf("batch = %+v", batch)
	}
	if pool.Contains(tx0.Hash()) {
		t.Fatal("stale tx survived NextBatch")
	}
	if pool.Len() != 1 {
		t.Fatalf("Len = %d, want 1", pool.Len())
	}
}

func TestMempoolNextNonce(t *testing.T) {
	alice := testIdentity(1)
	pool := NewMempool(0)
	if got := pool.NextNonce(alice.Address(), 3); got != 3 {
		t.Fatalf("empty pool NextNonce = %d, want 3", got)
	}
	pool.Add(SignTx(alice, testIdentity(2).Address(), 1, 3, 50_000, nil))
	pool.Add(SignTx(alice, testIdentity(2).Address(), 1, 4, 50_000, nil))
	pool.Add(SignTx(alice, testIdentity(2).Address(), 1, 7, 50_000, nil)) // gap at 5
	if got := pool.NextNonce(alice.Address(), 3); got != 5 {
		t.Fatalf("NextNonce = %d, want 5", got)
	}
}

// TestMempoolConcurrentStress hammers the pool from many goroutines.
// Run with -race (make ci does): the pool is reachable from the API
// server's handler goroutines, so every method must be safe for
// concurrent use.
func TestMempoolConcurrentStress(t *testing.T) {
	const (
		workers = 8
		perSeed = 40
	)
	pool := NewMempool(workers * perSeed)
	st := NewState()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sender := testIdentity(uint64(100 + w))
			var mine []*Transaction
			for n := 0; n < perSeed; n++ {
				tx := SignTx(sender, testIdentity(2).Address(), 1, uint64(n), 50_000, nil)
				if err := pool.Add(tx); err != nil {
					t.Errorf("add: %v", err)
					return
				}
				mine = append(mine, tx)
				pool.Contains(tx.Hash())
				pool.Len()
				pool.NextNonce(sender.Address(), 0)
				if n%8 == 7 { // drop the newest: the executable prefix survives
					pool.Remove(mine[len(mine)-1:])
					mine = mine[:len(mine)-1]
				}
			}
		}(w)
	}
	// Concurrent batch/prune reader. State is owned by this goroutine
	// only — the pool is the shared structure under test.
	wg.Add(1)
	go func() {
		defer wg.Done()
		local := NewState()
		for i := 0; i < 200; i++ {
			pool.NextBatch(local, 64, 0)
			pool.Prune(local)
		}
	}()
	wg.Wait()
	if pool.Len() == 0 {
		t.Fatal("stress left an empty pool; expected pending txs")
	}
	batch := pool.NextBatch(st, 1<<20, 0)
	if len(batch) == 0 {
		t.Fatal("no executable txs after stress")
	}
}

func TestMempoolCapacity(t *testing.T) {
	alice := testIdentity(1)
	pool := NewMempool(2)
	for n := uint64(0); n < 2; n++ {
		if err := pool.Add(SignTx(alice, testIdentity(2).Address(), 1, n, 50_000, nil)); err != nil {
			t.Fatal(err)
		}
	}
	err := pool.Add(SignTx(alice, testIdentity(2).Address(), 1, 2, 50_000, nil))
	if !errors.Is(err, ErrMempoolFull) {
		t.Fatalf("want ErrMempoolFull, got %v", err)
	}
}

func TestMempoolRemove(t *testing.T) {
	alice := testIdentity(1)
	pool := NewMempool(0)
	st := NewState()
	tx0 := SignTx(alice, testIdentity(2).Address(), 1, 0, 50_000, nil)
	tx1 := SignTx(alice, testIdentity(2).Address(), 1, 1, 50_000, nil)
	pool.Add(tx0)
	pool.Add(tx1)
	pool.Remove([]*Transaction{tx0})
	if pool.Len() != 1 {
		t.Fatalf("Len = %d", pool.Len())
	}
	if pool.Contains(tx0.Hash()) {
		t.Fatal("removed tx still present")
	}
	st.BumpNonce(alice.Address())
	batch := pool.NextBatch(st, 10, 0)
	if len(batch) != 1 || batch[0].Nonce != 1 {
		t.Fatalf("batch = %+v", batch)
	}
	// Removing everything clears the sender bucket.
	pool.Remove([]*Transaction{tx1})
	if pool.Len() != 0 {
		t.Fatal("pool not empty")
	}
}

func TestMempoolRejectsInvalidTx(t *testing.T) {
	alice := testIdentity(1)
	pool := NewMempool(0)
	tx := SignTx(alice, testIdentity(2).Address(), 1, 0, 50_000, nil)
	tx.Value = 999 // break the signature
	if err := pool.Add(tx); err == nil {
		t.Fatal("invalid tx admitted")
	}
}

func TestMempoolBatchLimit(t *testing.T) {
	alice := testIdentity(1)
	pool := NewMempool(0)
	st := NewState()
	for n := uint64(0); n < 5; n++ {
		pool.Add(SignTx(alice, testIdentity(2).Address(), 1, n, 50_000, nil))
	}
	if got := len(pool.NextBatch(st, 3, 0)); got != 3 {
		t.Fatalf("batch size = %d, want 3", got)
	}
}

// TestMempoolNextBatchEvictsOvergasPoison pins the poison-tx fix at the
// mempool layer: a transaction whose intrinsic gas exceeds the block
// budget is evicted during batch building instead of wedging selection.
func TestMempoolNextBatchEvictsOvergasPoison(t *testing.T) {
	st := NewState()
	pool := NewMempool(0)
	alice, bob := testIdentity(1), testIdentity(2)
	st.SetBalance(alice.Address(), 1_000_000)
	st.SetBalance(bob.Address(), 1_000_000)
	st.Commit()

	// 2kB payload: intrinsic gas 21000 + 16*2048 = 53768 > 50k budget.
	poison := SignTx(alice, bob.Address(), 1, 0, 100_000, make([]byte, 2048))
	follow := SignTx(alice, bob.Address(), 1, 1, 100_000, nil)
	ok := SignTx(bob, alice.Address(), 1, 0, 100_000, nil)
	for _, tx := range []*Transaction{poison, follow, ok} {
		if err := pool.Add(tx); err != nil {
			t.Fatal(err)
		}
	}
	batch := pool.NextBatch(st, 100, 50_000)
	if len(batch) != 1 || batch[0].Hash() != ok.Hash() {
		t.Fatalf("batch should hold only the healthy tx, got %d txs", len(batch))
	}
	if pool.Contains(poison.Hash()) {
		t.Fatal("poison tx survived NextBatch")
	}
	if !pool.Contains(follow.Hash()) {
		t.Fatal("poison eviction must not drop the sender's later (gapped) tx")
	}
}

// TestMempoolNextBatchGasAware pins declared-floor packing: batches cut
// at the gas budget, remainder stays pooled, and packing never splits a
// sender's nonce chain in a way that strands executable transactions.
func TestMempoolNextBatchGasAware(t *testing.T) {
	st := NewState()
	pool := NewMempool(0)
	const n = 10
	ids := make([]*identity.Identity, n)
	for i := range ids {
		ids[i] = testIdentity(uint64(i))
		st.SetBalance(ids[i].Address(), 1_000_000)
	}
	st.Commit()
	for _, id := range ids {
		if err := pool.Add(SignTx(id, ids[0].Address(), 1, 0, 100_000, nil)); err != nil {
			t.Fatal(err)
		}
	}
	// Budget for exactly four 21k-intrinsic transfers.
	batch := pool.NextBatch(st, 100, 4*21_000)
	if len(batch) != 4 {
		t.Fatalf("gas-aware batch took %d txs, want 4", len(batch))
	}
	if pool.Len() != n {
		t.Fatalf("selection must not evict fitting txs: pool has %d of %d", pool.Len(), n)
	}
	// Unlimited budget takes everything.
	if got := len(pool.NextBatch(st, 100, 0)); got != n {
		t.Fatalf("unlimited budget took %d txs, want %d", got, n)
	}
}

// TestEvictOvergas pins the seal path's defense-in-depth hook.
func TestEvictOvergas(t *testing.T) {
	pool := NewMempool(0)
	alice := testIdentity(1)
	var to identity.Address
	tx := SignTx(alice, to, 1, 0, 100_000, nil)
	if err := pool.Add(tx); err != nil {
		t.Fatal(err)
	}
	if !pool.EvictOvergas(tx) {
		t.Fatal("EvictOvergas should report the eviction")
	}
	if pool.Contains(tx.Hash()) || pool.Len() != 0 {
		t.Fatal("tx survived EvictOvergas")
	}
	if pool.EvictOvergas(tx) {
		t.Fatal("second eviction should report false")
	}
}
