package market

import (
	"errors"
	"sync"
	"testing"

	"pds2/internal/crypto"
	"pds2/internal/identity"
	"pds2/internal/ledger"
)

// TestConcurrentSubmitSealRace stress-tests the documented concurrency
// contract under the race detector: many producers push transactions
// through the lock-free Pool.Add fast path (falling back to the
// serialized Submit prune-retry on overflow) while a sealer thread —
// holding the same lock an API server would — seals blocks and prunes,
// racing the mempool's internal eviction against concurrent admission.
func TestConcurrentSubmitSealRace(t *testing.T) {
	const (
		producers   = 8
		txsPerActor = 40
		poolSize    = 64
	)
	rng := crypto.NewDRBGFromUint64(4242, "race-stress")
	authority := identity.New("authority", rng.Fork("authority"))
	senders := make([]*identity.Identity, producers)
	alloc := map[identity.Address]uint64{}
	sink := identity.New("sink", rng.Fork("sink"))
	for i := range senders {
		senders[i] = identity.New("sender", rng.Fork("sender"))
		alloc[senders[i].Address()] = 1_000_000
	}
	alloc[sink.Address()] = 1
	m, err := New(Config{
		Seed:         4242,
		GenesisAlloc: alloc,
		Authorities:  []*identity.Identity{authority},
		MempoolSize:  poolSize,
	})
	if err != nil {
		t.Fatal(err)
	}

	// mu serializes Market methods (Submit, SealBlockAt, Prune) exactly
	// as internal/api's server mutex does; Pool.Add stays lock-free.
	var mu sync.Mutex
	var wg sync.WaitGroup
	done := make(chan struct{})

	// Producers: each sender signs its own dense nonce sequence up
	// front (signing needs no chain state), then races admission.
	for i := 0; i < producers; i++ {
		wg.Add(1)
		go func(id *identity.Identity) {
			defer wg.Done()
			base := m.Chain.State().Nonce(id.Address())
			for n := 0; n < txsPerActor; n++ {
				tx := ledger.SignTx(id, sink.Address(), 1, base+uint64(n), m.DefaultGasLimit, nil)
				for {
					if err := m.Pool.Add(tx); err == nil {
						break
					} else if !errors.Is(err, ledger.ErrMempoolFull) {
						t.Errorf("add: %v", err)
						return
					}
					mu.Lock()
					err := m.Submit(tx)
					mu.Unlock()
					if err == nil {
						break
					} else if !errors.Is(err, ledger.ErrMempoolFull) {
						t.Errorf("submit: %v", err)
						return
					}
					// Pool genuinely full of includable txs: let the
					// sealer drain it and retry.
				}
			}
		}(senders[i])
	}

	// Sealer: drain the pool block by block until producers finish and
	// the pool is empty, interleaving prunes to race Add vs evict.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			mu.Lock()
			m.Pool.Prune(m.Chain.State())
			if _, err := m.SealBlockAt(m.Timestamp() + 1); err != nil {
				t.Errorf("seal: %v", err)
				mu.Unlock()
				return
			}
			empty := m.Pool.Len() == 0
			mu.Unlock()
			select {
			case <-done:
				if empty {
					return
				}
			default:
			}
		}
	}()

	// Readers: hammer the mempool's concurrent-safe read surface.
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				m.Pool.Len()
				m.Pool.NextNonce(senders[0].Address(), 0)
			}
		}()
	}

	producersDone := make(chan struct{})
	go func() {
		// Close done only after all producer goroutines finished; the
		// sealer then drains the remainder and exits.
		wg.Wait()
		close(producersDone)
	}()

	// Wait for producers by counting delivered transactions.
	total := uint64(producers * txsPerActor)
	for {
		mu.Lock()
		delivered := uint64(0)
		st := m.Chain.State()
		for _, id := range senders {
			delivered += st.Nonce(id.Address())
		}
		mu.Unlock()
		if delivered == total {
			close(done)
			break
		}
	}
	<-producersDone

	// Every transaction must have landed exactly once: final nonces are
	// dense and the sink holds one unit per transaction.
	for i, id := range senders {
		if got := m.Chain.State().Nonce(id.Address()); got != uint64(txsPerActor) {
			t.Errorf("sender %d: nonce %d, want %d", i, got, txsPerActor)
		}
	}
	if got := m.Chain.State().Balance(sink.Address()); got != 1+total {
		t.Errorf("sink balance %d, want %d", got, 1+total)
	}
}

// TestConcurrentImportSubmitSealRace stress-tests State's concurrency
// contract (one writer, any number of primitive readers) under the race
// detector: a sealing node executes blocks while API producers admit
// transactions through the lock-free Pool.Add fast path, readers outside
// the market lock hit the live state's primitive getters, and a follower
// node imports every sealed block concurrently with the sealer. The two
// replicas must converge to the same root.
func TestConcurrentImportSubmitSealRace(t *testing.T) {
	const (
		producers   = 6
		txsPerActor = 50
	)
	rng := crypto.NewDRBGFromUint64(7777, "par-race")
	authority := identity.New("authority", rng.Fork("authority"))
	sink := identity.New("sink", rng.Fork("sink"))
	senders := make([]*identity.Identity, producers)
	alloc := map[identity.Address]uint64{sink.Address(): 1}
	for i := range senders {
		senders[i] = identity.New("sender", rng.Fork("sender"))
		alloc[senders[i].Address()] = 1_000_000
	}
	cfg := Config{
		Seed:         7777,
		GenesisAlloc: alloc,
		Authorities:  []*identity.Identity{authority},
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Same deterministic config ⇒ the follower rebuilds the identical
	// setup chain (registry and deed deploys included) and can import
	// the sealer's blocks from there.
	follower, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Chain.Head().Hash() != follower.Chain.Head().Hash() {
		t.Fatal("fixture: sealer and follower diverge before the race")
	}

	var mu sync.Mutex // the API server's serialization of Market methods
	blocks := make(chan *ledger.Block, 4096)
	done := make(chan struct{})
	var producersWG, helpersWG sync.WaitGroup

	for i := 0; i < producers; i++ {
		producersWG.Add(1)
		go func(id *identity.Identity) {
			defer producersWG.Done()
			base := m.Chain.State().Nonce(id.Address())
			for n := 0; n < txsPerActor; n++ {
				tx := ledger.SignTx(id, sink.Address(), 1, base+uint64(n), m.DefaultGasLimit, nil)
				for {
					if err := m.Pool.Add(tx); err == nil {
						break
					} else if !errors.Is(err, ledger.ErrMempoolFull) {
						t.Errorf("add: %v", err)
						return
					}
					mu.Lock()
					err := m.Submit(tx)
					mu.Unlock()
					if err == nil {
						break
					} else if !errors.Is(err, ledger.ErrMempoolFull) {
						t.Errorf("submit: %v", err)
						return
					}
				}
			}
		}(senders[i])
	}

	// Sealer: each sealed block streams to the follower.
	helpersWG.Add(1)
	go func() {
		defer helpersWG.Done()
		defer close(blocks)
		for {
			mu.Lock()
			block, err := m.SealBlockAt(m.Timestamp() + 1)
			if err != nil {
				t.Errorf("seal: %v", err)
				mu.Unlock()
				return
			}
			empty := m.Pool.Len() == 0
			mu.Unlock()
			// Empty blocks ship too: the follower needs the full parent
			// chain to import.
			blocks <- block
			select {
			case <-done:
				if empty {
					return
				}
			default:
			}
		}
	}()

	// Follower: imports the sealed stream concurrently with the sealer's
	// own execution.
	helpersWG.Add(1)
	go func() {
		defer helpersWG.Done()
		for block := range blocks {
			if err := follower.Chain.ImportBlock(block); err != nil {
				t.Errorf("import height %d: %v", block.Header.Height, err)
				return
			}
		}
	}()

	// Readers: unlocked primitive reads against live execution —
	// explicitly allowed by the state's concurrency contract.
	for i := 0; i < 2; i++ {
		helpersWG.Add(1)
		go func() {
			defer helpersWG.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				st := m.Chain.State()
				st.Balance(sink.Address())
				st.Nonce(senders[0].Address())
				m.Pool.Len()
			}
		}()
	}

	producersWG.Wait()
	total := uint64(producers * txsPerActor)
	for {
		mu.Lock()
		delivered := m.Chain.State().Balance(sink.Address()) - 1
		mu.Unlock()
		if delivered == total {
			break
		}
	}
	close(done)
	helpersWG.Wait()

	if sealed, imported := m.Chain.State().Root(), follower.Chain.State().Root(); sealed != imported {
		t.Fatalf("follower diverged: sealer root %s, follower %s", sealed.Short(), imported.Short())
	}
	for i, id := range senders {
		if got := m.Chain.State().Nonce(id.Address()); got != uint64(txsPerActor) {
			t.Errorf("sender %d: nonce %d, want %d", i, got, txsPerActor)
		}
	}
}
