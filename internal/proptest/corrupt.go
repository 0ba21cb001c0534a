package proptest

import (
	"encoding/json"
	"fmt"

	"pds2/internal/crypto"
	"pds2/internal/identity"
	"pds2/internal/ledger"
	"pds2/internal/market"
)

// Corruption injectors: each takes a valid exported chain and produces
// a subtly broken variant. The detection test demands that every replay
// mode rejects every variant — if any slips through, the ledger has a
// validation hole.
//
// The export-level kinds (CorruptExport) simulate a tampering relay:
// they break the transaction signature, the tx-root commitment, or the
// proposer seal, and must be caught by the header/stateless checks. The
// forged-block kinds (ForgeSkippedNonceBlock, ForgeBalanceClaimBlock,
// ForgeFlatRootBlock, ForgeUnverifiedSigBlock) simulate a *malicious
// authority*: the seal is genuine, every commitment is internally
// consistent with the hostile payload, and only the importer's own
// signature check or the execution-level checks (nonce continuity,
// recomputed state root) can catch them.

// Corruption enumerates the export-level tampering kinds.
type Corruption int

// Export-level corruption kinds.
const (
	// CorruptValue bumps a transaction's value — a mutated balance
	// transfer. Breaks the sender signature.
	CorruptValue Corruption = iota
	// CorruptDropTx removes a block's last transaction — a dropped
	// receipt. Breaks the tx-root commitment.
	CorruptDropTx
	// CorruptNonce bumps a transaction's nonce — a skipped nonce.
	// Breaks the sender signature.
	CorruptNonce
	// CorruptGasUsed bumps a header's gas total. Breaks the seal.
	CorruptGasUsed
	// CorruptStateRoot flips a byte of a header's state root. Breaks
	// the seal.
	CorruptStateRoot
)

// Corruptions lists every export-level kind, for exhaustive sweeps.
var Corruptions = []Corruption{
	CorruptValue, CorruptDropTx, CorruptNonce, CorruptGasUsed, CorruptStateRoot,
}

// String implements fmt.Stringer.
func (c Corruption) String() string {
	switch c {
	case CorruptValue:
		return "mutated-value"
	case CorruptDropTx:
		return "dropped-tx"
	case CorruptNonce:
		return "skipped-nonce"
	case CorruptGasUsed:
		return "mutated-gas"
	case CorruptStateRoot:
		return "mutated-state-root"
	default:
		return fmt.Sprintf("Corruption(%d)", int(c))
	}
}

// CorruptExport applies one corruption kind to an exported chain. seed
// picks which eligible block is hit, so sweeps can vary the target. It
// fails if the export holds no block eligible for the kind (e.g. no
// block with transactions).
func CorruptExport(data []byte, kind Corruption, seed uint64) ([]byte, error) {
	exp, err := decodeExport(data)
	if err != nil {
		return nil, err
	}
	var eligible []int
	for i, b := range exp.Blocks {
		if len(b.Txs) > 0 || kind == CorruptGasUsed || kind == CorruptStateRoot {
			eligible = append(eligible, i)
		}
	}
	if len(eligible) == 0 {
		return nil, fmt.Errorf("proptest: no block eligible for %s", kind)
	}
	target := exp.Blocks[eligible[seed%uint64(len(eligible))]]

	switch kind {
	case CorruptValue:
		target.Txs[0].Value++
	case CorruptDropTx:
		target.Txs = target.Txs[:len(target.Txs)-1]
	case CorruptNonce:
		target.Txs[0].Nonce++
	case CorruptGasUsed:
		target.Header.GasUsed++
	case CorruptStateRoot:
		target.Header.StateRoot[0] ^= 0xff
	default:
		return nil, fmt.Errorf("proptest: unknown corruption %d", int(kind))
	}
	return json.Marshal(exp)
}

// forgeHeader assembles an internally consistent header over txs on top
// of the live chain's head, claiming the given state root.
func forgeHeader(m *market.Market, txs []*ledger.Transaction, claimRoot crypto.Digest, gasUsed uint64) ledger.Header {
	parent := m.Chain.Head()
	return ledger.Header{
		Parent:    parent.Hash(),
		Height:    parent.Header.Height + 1,
		Timestamp: parent.Header.Timestamp + 1,
		TxRoot:    ledger.TxRoot(txs),
		StateRoot: claimRoot,
		GasUsed:   gasUsed,
	}
}

// ForgeSkippedNonceBlock builds a validly-sealed block whose single
// transaction skips the sender's next nonce. Seal, tx root, signatures
// and intrinsic gas all check out; only the apply-level nonce
// continuity check can reject it.
func ForgeSkippedNonceBlock(m *market.Market, authority, sender *identity.Identity) *ledger.Block {
	nonce := m.Chain.State().Nonce(sender.Address()) + 1 // skip one
	tx := ledger.SignTx(sender, authority.Address(), 1, nonce, ledger.TxBaseGas, nil)
	blk := &ledger.Block{
		Header: forgeHeader(m, []*ledger.Transaction{tx},
			m.Chain.Head().Header.StateRoot, tx.IntrinsicGas()),
		Txs: []*ledger.Transaction{tx},
	}
	blk.Seal(authority)
	return blk
}

// ForgeBalanceClaimBlock builds a validly-sealed block whose
// transaction is perfectly valid but whose header claims the parent's
// state root — a balance mutation hidden behind a stale commitment.
// Everything up to execution checks out; only the recomputed state root
// exposes the lie.
func ForgeBalanceClaimBlock(m *market.Market, authority, sender *identity.Identity) *ledger.Block {
	nonce := m.Chain.State().Nonce(sender.Address())
	tx := ledger.SignTx(sender, authority.Address(), 1, nonce, ledger.TxBaseGas, nil)
	blk := &ledger.Block{
		Header: forgeHeader(m, []*ledger.Transaction{tx},
			m.Chain.Head().Header.StateRoot, tx.IntrinsicGas()),
		Txs: []*ledger.Transaction{tx},
	}
	blk.Seal(authority)
	return blk
}

// ForgeUnverifiedSigBlock builds the block a proposer that skipped
// signature verification would seal — ledger.ProposeFromPool trusts its
// own mempool's vouch, so this is what a vouch bug would put on the wire:
// the seal is genuine and the tx root commits to the transaction as
// carried, but the sender never signed that value. Importers verify every
// signature themselves; every mode must refuse it with
// ledger.ErrTxSignature.
func ForgeUnverifiedSigBlock(m *market.Market, authority, sender *identity.Identity) *ledger.Block {
	blk := ForgeBalanceClaimBlock(m, authority, sender)
	blk.Txs[0].Value++
	blk.Header.TxRoot = ledger.TxRoot(blk.Txs)
	blk.Seal(authority)
	return blk
}

// ForgeFlatRootBlock builds a validly-sealed block that is valid in
// every respect but one: its header commits to the post-state under the
// flat state-root definition the bucketed commitment replaced — what a
// proposer still running the old root would seal. The valid twin is
// proposed on a scratch copy of the live chain, so the forgery differs
// from an acceptable block in Header.StateRoot (and the seal over it)
// alone; every mode must refuse it with ledger.ErrBadStateRoot.
func ForgeFlatRootBlock(m *market.Market, authority, sender *identity.Identity) (*ledger.Block, error) {
	rt, err := market.NewRuntime()
	if err != nil {
		return nil, err
	}
	scratch, err := ledger.NewChainFromSnapshot(m.Chain.ExportSnapshot(), rt)
	if err != nil {
		return nil, err
	}
	nonce := scratch.State().Nonce(sender.Address())
	tx := ledger.SignTx(sender, authority.Address(), 1, nonce, ledger.TxBaseGas, nil)
	valid, err := scratch.ProposeBlock(authority, scratch.Head().Header.Timestamp+1, []*ledger.Transaction{tx})
	if err != nil {
		return nil, err
	}
	forged := &ledger.Block{Header: valid.Header, Txs: valid.Txs}
	forged.Header.StateRoot = flatRoot(scratch.ExportSnapshot())
	forged.Seal(authority)
	return forged, nil
}

// AppendForgedBlock attaches a forged block to an exported chain,
// producing the byte stream a replica syncing from a malicious
// authority would receive.
func AppendForgedBlock(data []byte, blk *ledger.Block) ([]byte, error) {
	exp, err := decodeExport(data)
	if err != nil {
		return nil, err
	}
	exp.Blocks = append(exp.Blocks, blk)
	return json.Marshal(exp)
}
