package market

import (
	"fmt"

	"pds2/internal/chainstore"
	"pds2/internal/contract"
	"pds2/internal/crypto"
	"pds2/internal/identity"
	"pds2/internal/ledger"
	"pds2/internal/semantic"
	"pds2/internal/tee"
	"pds2/internal/telemetry"
	"pds2/internal/token"
	"pds2/internal/vm"
)

// NewRuntime builds a contract runtime with the full marketplace code
// registry — the applier any node or replica must run to validate (or
// re-validate) a market chain.
func NewRuntime() (*contract.Runtime, error) {
	return newRuntime(RegistryContract{})
}

// NewRuntimeWithExec is NewRuntime with deployed policy programs run by
// exec instead of vm.Execute, on the same host and gas meter. It is the
// seam differential tests use to put another engine for the same
// program dialect under a whole chain; a node runs NewRuntime.
func NewRuntimeWithExec(exec func(*vm.Module, semantic.Host) (semantic.Verdict, error)) (*contract.Runtime, error) {
	return newRuntime(RegistryContract{exec: exec})
}

func newRuntime(reg RegistryContract) (*contract.Runtime, error) {
	rt := contract.NewRuntime()
	for name, code := range map[string]contract.Contract{
		RegistryCodeName:     reg,
		WorkloadCodeName:     WorkloadContract{},
		token.ERC20CodeName:  token.ERC20{},
		token.ERC721CodeName: token.ERC721{},
	} {
		if err := rt.RegisterCode(name, code); err != nil {
			return nil, err
		}
	}
	return rt, nil
}

// storeMeta is the runtime metadata a durable market persists next to
// the chain: the well-known contract addresses New deploys (needed to
// rebind without re-deriving them) and the seed, so a reopen with the
// wrong seed — which would derive different authority keys and be
// unable to seal — fails loudly instead of at the first block.
type storeMeta struct {
	Seed     uint64           `json:"seed"`
	Registry identity.Address `json:"registry"`
	Deeds    identity.Address `json:"deeds"`
}

// Store returns the durable chain store backing this market, or nil
// for an in-memory market.
func (m *Market) Store() *chainstore.Store { return m.store }

// Open builds a market backed by a durable chain store. A fresh store
// is initialised from cfg exactly like New (genesis, registry and deed
// deploys all land in the log); an existing store restores the chain
// from its newest snapshot plus the log tail, re-validating every tail
// block, and rebinds the contract addresses from the store metadata.
// Either way every subsequent seal or import is appended (fsynced)
// before the caller sees the receipt.
//
// cfg must match the store's provenance on reopen: the same Seed (the
// authority keys are derived from it) and, if set, the same
// BlockGasLimit as the persisted genesis.
func Open(cfg Config, store *chainstore.Store) (*Market, error) {
	if store == nil {
		return New(cfg)
	}
	if !store.HasGenesis() {
		m, err := New(cfg)
		if err != nil {
			return nil, err
		}
		if err := store.InitChain(m.Chain); err != nil {
			return nil, fmt.Errorf("market: init store: %w", err)
		}
		if err := store.PutMeta(storeMeta{Seed: cfg.Seed, Registry: m.Registry, Deeds: m.Deeds}); err != nil {
			return nil, fmt.Errorf("market: store meta: %w", err)
		}
		m.store = store
		return m, nil
	}

	var meta storeMeta
	if err := store.GetMeta(&meta); err != nil {
		return nil, fmt.Errorf("market: store has no runtime metadata: %w", err)
	}
	if meta.Seed != cfg.Seed {
		return nil, fmt.Errorf("market: store was created with seed %d, reopened with %d", meta.Seed, cfg.Seed)
	}

	rng := crypto.NewDRBGFromUint64(cfg.Seed, "market")
	rt, err := NewRuntime()
	if err != nil {
		return nil, err
	}
	authorities := cfg.Authorities
	if len(authorities) == 0 {
		// Same derivation as New: DRBG forks are keyed, not positional,
		// so the governor's key is reproducible from the seed alone.
		authorities = []*identity.Identity{identity.New("governor", rng.Fork("governor"))}
	}

	chain, err := store.OpenChain(rt)
	if err != nil {
		return nil, err
	}
	exp, err := store.ReadGenesis()
	if err != nil {
		return nil, err
	}
	if cfg.BlockGasLimit != 0 && cfg.BlockGasLimit != exp.BlockGasLimit {
		return nil, fmt.Errorf("market: store genesis has gas limit %d, config asks %d",
			exp.BlockGasLimit, cfg.BlockGasLimit)
	}
	for i, auth := range authorities {
		if i >= len(exp.Authorities) || exp.Authorities[i] != auth.Address() {
			return nil, fmt.Errorf("market: derived authority set does not match store genesis (wrong seed or authority config)")
		}
	}
	if len(authorities) != len(exp.Authorities) {
		return nil, fmt.Errorf("market: store genesis has %d authorities, config derives %d",
			len(exp.Authorities), len(authorities))
	}

	m := &Market{
		Chain:           chain,
		Runtime:         rt,
		Pool:            ledger.NewMempool(cfg.MempoolSize),
		QA:              tee.NewQuotingAuthority(rng.Fork("qa")),
		Registry:        meta.Registry,
		Deeds:           meta.Deeds,
		authorities:     authorities,
		rng:             rng,
		store:           store,
		DefaultGasLimit: 40_000_000,
		lifecycles:      make(map[identity.Address]*telemetry.ActiveSpan),
		timestamp:       chain.Head().Header.Timestamp,
	}
	return m, nil
}
