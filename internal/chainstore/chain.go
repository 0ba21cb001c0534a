package chainstore

import (
	"fmt"

	"pds2/internal/ledger"
)

// InitChain binds a freshly built chain to the store: it persists the
// chain's genesis configuration, appends every block the chain already
// sealed (a market runtime seals several setup blocks during
// construction), and installs the commit hook so every future seal or
// import lands in the log.
func (s *Store) InitChain(chain *ledger.Chain) error {
	if err := s.WriteGenesis(chain.ExportConfig()); err != nil {
		return err
	}
	last, _ := s.LastHeight()
	for h := last + 1; h <= chain.Height(); h++ {
		b, err := chain.BlockAt(h)
		if err != nil {
			return err
		}
		if err := s.Append(b); err != nil {
			return err
		}
	}
	s.Attach(chain)
	return nil
}

// Attach installs the store as the chain's commit observer. Append
// failures cannot veto an already-committed block, so they surface
// through the store's health check (unhealthy until a later durable
// write succeeds) rather than through the seal path — the documented
// durability contract is at-most-one-block loss on a torn write, which
// crash-truncation recovery then discards on reopen.
func (s *Store) Attach(chain *ledger.Chain) {
	chain.SetOnCommit(func(b *ledger.Block) {
		_ = s.Append(b) // error recorded by fail(); surfaced via Health
	})
}

// AttachSnapshotting is Attach plus a periodic snapshot policy: after
// every `every` appended blocks the chain's full state is snapshotted,
// old snapshots and fully-covered log segments are pruned, and the next
// open resumes from "snapshot + tail" instead of genesis. The hook runs
// on the committing goroutine while the chain is quiescent, so
// ExportSnapshot observes a consistent state. every == 0 disables the
// policy (plain Attach).
func (s *Store) AttachSnapshotting(chain *ledger.Chain, every uint64) {
	if every == 0 {
		s.Attach(chain)
		return
	}
	last := chain.Height()
	chain.SetOnCommit(func(b *ledger.Block) {
		if err := s.Append(b); err != nil {
			return // recorded by fail(); surfaced via Health
		}
		if b.Header.Height >= last+every {
			if err := s.WriteSnapshot(chain.ExportSnapshot()); err == nil {
				last = b.Header.Height
			}
		}
	})
}

// OpenChain rebuilds a chain from the store: newest valid snapshot (if
// any) plus the tail of the log, every tail block re-validated through
// the normal import path. The returned chain is attached to the store,
// so subsequent commits keep appending. applier must provide the same
// transaction semantics the original chain ran.
func (s *Store) OpenChain(applier ledger.TxApplier) (*ledger.Chain, error) {
	chain, err := s.loadChain(applier)
	if err != nil {
		return nil, err
	}
	s.Attach(chain)
	return chain, nil
}

// VerifyChain is OpenChain without the attach — the offline auditor's
// entry point: rebuild and fully re-validate, but never write.
func (s *Store) VerifyChain(applier ledger.TxApplier) (*ledger.Chain, error) {
	return s.loadChain(applier)
}

func (s *Store) loadChain(applier ledger.TxApplier) (*ledger.Chain, error) {
	if !s.HasGenesis() {
		return nil, fmt.Errorf("chainstore: store %s has no genesis (not initialised)", s.dir)
	}
	snap, err := s.LatestSnapshot()
	if err != nil {
		return nil, err
	}

	var chain *ledger.Chain
	if snap != nil {
		chain, err = ledger.NewChainFromSnapshot(snap, applier)
		if err != nil {
			return nil, fmt.Errorf("chainstore: restore snapshot at %d: %w", snap.Height(), err)
		}
	} else {
		exp, err := s.ReadGenesis()
		if err != nil {
			return nil, err
		}
		chain, err = ledger.NewChain(ledger.ChainConfig{
			Authorities:   exp.Authorities,
			BlockGasLimit: exp.BlockGasLimit,
			GenesisAlloc:  exp.GenesisAlloc,
			Applier:       applier,
		})
		if err != nil {
			return nil, err
		}
	}

	// Replay the log tail through full validation: seals, rotation, tx
	// roots, gas and state roots all re-checked. Blocks reads and decodes
	// on the import's producer goroutine, ahead of the block executing.
	from := chain.Height() + 1
	rejected, err := chain.ImportStream(func(yield func(*ledger.Block) error) error {
		return s.Blocks(from, yield)
	})
	if rejected != nil {
		return nil, fmt.Errorf("chainstore: replay block %d: %w", rejected.Header.Height, err)
	}
	if err != nil {
		return nil, err
	}
	return chain, nil
}
