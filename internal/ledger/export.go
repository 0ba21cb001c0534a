package ledger

import (
	"encoding/json"
	"fmt"
	"io"

	"pds2/internal/identity"
)

// Export/replay: §II-E requires that "all actions in the platform should
// be automatically audited … in a trustless decentralized fashion". The
// chain is that audit log; this file lets any third party export it,
// carry it elsewhere, and re-validate every block and state transition
// from genesis without trusting the exporter.

// ChainExport is the portable serialized form of a chain.
type ChainExport struct {
	Authorities   []identity.Address          `json:"authorities"`
	BlockGasLimit uint64                      `json:"block_gas_limit"`
	GenesisAlloc  map[identity.Address]uint64 `json:"genesis_alloc,omitempty"`
	Blocks        []*Block                    `json:"blocks"` // height 1..head
}

// Export serializes the chain (excluding genesis, which is derived from
// the config) as indented JSON. A chain restored from a snapshot has
// pruned its history below the snapshot height and cannot produce a
// from-genesis export.
func (c *Chain) Export(w io.Writer) error {
	if c.base != 0 {
		return fmt.Errorf("ledger: cannot export chain with pruned history (base %d)", c.base)
	}
	exp := ChainExport{
		Authorities:   c.cfg.Authorities,
		BlockGasLimit: c.cfg.BlockGasLimit,
		GenesisAlloc:  c.cfg.GenesisAlloc,
		Blocks:        c.blocks[1:],
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(exp)
}

// ExportConfig returns the chain's replayable configuration as a
// block-less export — the genesis record a durable store persists so a
// later open can rebuild the genesis block before replaying the log.
func (c *Chain) ExportConfig() ChainExport {
	return ChainExport{
		Authorities:   append([]identity.Address(nil), c.cfg.Authorities...),
		BlockGasLimit: c.cfg.BlockGasLimit,
		GenesisAlloc:  c.cfg.GenesisAlloc,
	}
}

// Replay reconstructs and fully re-validates a chain from an export: it
// rebuilds genesis from the embedded config and streams every block
// through the normal validation path (ImportStream: seals, proposer
// rotation, tx roots, gas accounting and state roots). applier must
// provide the same transaction semantics the original chain ran (e.g. the
// same contract runtime); a nil applier selects plain transfers.
func Replay(r io.Reader, applier TxApplier) (*Chain, error) {
	var exp ChainExport
	dec := json.NewDecoder(r)
	if err := dec.Decode(&exp); err != nil {
		return nil, fmt.Errorf("ledger: decode export: %w", err)
	}
	chain, err := NewChain(ChainConfig{
		Authorities:   exp.Authorities,
		BlockGasLimit: exp.BlockGasLimit,
		GenesisAlloc:  exp.GenesisAlloc,
		Applier:       applier,
	})
	if err != nil {
		return nil, err
	}
	rejected, err := chain.ImportStream(BlocksOf(exp.Blocks...))
	if rejected != nil {
		// Replay starts at genesis, so the rejected block is the export's
		// entry number Height()+1 whatever height its header claims.
		return nil, fmt.Errorf("ledger: replay block %d: %w", chain.Height()+1, err)
	}
	if err != nil {
		return nil, err
	}
	return chain, nil
}
