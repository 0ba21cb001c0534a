package proptest

import (
	"fmt"

	"pds2/internal/contract"
	"pds2/internal/identity"
	"pds2/internal/ledger"
	"pds2/internal/market"
	"pds2/internal/policy"
	"pds2/internal/vm"
)

// Violation is one broken invariant, pinned to the block and plan
// position that exposed it.
type Violation struct {
	// Invariant names the broken property (e.g. "supply-conservation").
	Invariant string
	// Height is the chain height at which the check fired.
	Height uint64
	// OpIndex is the plan position whose execution exposed it; -1 marks
	// the setup phase before the first op.
	OpIndex int
	// Detail is the human-readable mismatch.
	Detail string
}

// String implements fmt.Stringer.
func (v Violation) String() string {
	return fmt.Sprintf("[%s] op=%d height=%d: %s", v.Invariant, v.OpIndex, v.Height, v.Detail)
}

// Auditor checks the global invariants of a live market. It is fed
// every sealed block in order (ObserveBlock) so cumulative properties —
// nonce accounting, event totals — can be checked in O(accounts)
// instead of re-walking the chain.
type Auditor struct {
	m *market.Market

	// baselineSupply is the native-token total at construction. Nothing
	// after genesis mints or burns native tokens, so it is conserved.
	baselineSupply uint64

	// erc20s and erc721s are the token contracts under audit.
	erc20s  []identity.Address
	erc721s []identity.Address

	// txsSent counts transactions per sender across observed blocks —
	// the ground truth every account nonce must equal, since both
	// successful and reverted transactions consume exactly one nonce.
	txsSent map[identity.Address]uint64

	// eventsSeen totals receipt events across observed blocks; the
	// chain's flat audit log must grow by exactly this much.
	eventsSeen int
}

// NewAuditor captures the conservation baseline of a market. Call it
// after setup (deploys move value around; they do not create it) and
// before feeding blocks.
func NewAuditor(m *market.Market, erc20s, erc721s []identity.Address) *Auditor {
	return &Auditor{
		m:              m,
		baselineSupply: m.Chain.State().TotalBalance(),
		erc20s:         erc20s,
		erc721s:        erc721s,
		txsSent:        make(map[identity.Address]uint64),
	}
}

// ObserveBlock folds one sealed block into the cumulative accounting.
// Blocks must be fed exactly once each, in height order.
func (a *Auditor) ObserveBlock(blk *ledger.Block) {
	for _, tx := range blk.Txs {
		a.txsSent[tx.From]++
		if rcpt, ok := a.m.Chain.Receipt(tx.Hash()); ok {
			a.eventsSeen += len(rcpt.Events)
		}
	}
}

// CheckBlock verifies the per-block invariants: the gas bound, the tx
// root commitment, and receipt consistency (every transaction has a
// receipt at this height whose gas totals match the header claim).
func (a *Auditor) CheckBlock(blk *ledger.Block) []Violation {
	var out []Violation
	h := blk.Header.Height
	add := func(inv, format string, args ...any) {
		out = append(out, Violation{Invariant: inv, Height: h, Detail: fmt.Sprintf(format, args...)})
	}
	if limit := a.m.Chain.GasLimit(); blk.Header.GasUsed > limit {
		add("gas-limit", "block gas %d > limit %d", blk.Header.GasUsed, limit)
	}
	if root := ledger.TxRoot(blk.Txs); root != blk.Header.TxRoot {
		add("tx-root", "computed %s, header %s", root.Short(), blk.Header.TxRoot.Short())
	}
	var gasSum uint64
	for i, tx := range blk.Txs {
		rcpt, ok := a.m.Chain.Receipt(tx.Hash())
		if !ok {
			add("receipts", "tx %d (%s) has no receipt", i, tx.Hash().Short())
			continue
		}
		if rcpt.Height != h {
			add("receipts", "tx %d receipt height %d, block %d", i, rcpt.Height, h)
		}
		gasSum += rcpt.GasUsed
		if !rcpt.Succeeded() && len(rcpt.Events) != 0 {
			add("receipts", "tx %d failed but kept %d events", i, len(rcpt.Events))
		}
	}
	if gasSum != blk.Header.GasUsed {
		add("gas-accounting", "receipts total %d, header claims %d", gasSum, blk.Header.GasUsed)
	}
	return out
}

// CheckGlobal verifies the whole-state invariants against the live
// market: native supply conservation, per-account nonce accounting,
// state-root and journal hygiene, and token-contract conservation.
func (a *Auditor) CheckGlobal() []Violation {
	var out []Violation
	st := a.m.Chain.State()
	h := a.m.Height()
	add := func(inv, format string, args ...any) {
		out = append(out, Violation{Invariant: inv, Height: h, Detail: fmt.Sprintf(format, args...)})
	}

	if total := st.TotalBalance(); total != a.baselineSupply {
		add("supply-conservation", "native total %d, genesis total %d", total, a.baselineSupply)
	}

	// Nonce accounting: every account's nonce equals the transactions it
	// sent; no account sent transactions without its nonce keeping up.
	seen := make(map[identity.Address]bool, len(a.txsSent))
	for _, addr := range st.Accounts() {
		seen[addr] = true
		if n := st.Nonce(addr); n != a.txsSent[addr] {
			add("nonce-accounting", "%s nonce %d, sent %d txs", addr.Short(), n, a.txsSent[addr])
		}
	}
	for addr, sent := range a.txsSent {
		if !seen[addr] && sent != 0 {
			add("nonce-accounting", "%s sent %d txs but is absent from state", addr.Short(), sent)
		}
	}

	// State-root determinism and journal hygiene at the tip.
	head := a.m.Chain.Head()
	if root := st.Root(); root != head.Header.StateRoot {
		add("state-root", "live root %s, head commits %s", root.Short(), head.Header.StateRoot.Short())
	}
	// The header root is maintained incrementally; restoring a snapshot
	// rebuilds it from scratch and refuses one that does not match.
	if _, err := ledger.NewChainFromSnapshot(a.m.Chain.ExportSnapshot(), nil); err != nil {
		add("state-root-rebuild", "%v", err)
	}
	if n := st.JournalLen(); n != 0 {
		add("journal", "%d uncommitted journal entries after seal", n)
	}

	// Event-log consistency: the flat audit log is exactly the
	// concatenation of every observed receipt's events.
	if logged := len(a.m.Chain.Events("")); logged != a.eventsSeen {
		add("event-log", "audit log has %d events, receipts carried %d", logged, a.eventsSeen)
	}

	// Usage-control invariants over the flat audit log: every recorded
	// policy decision must re-derive identically offline (same code from
	// the policy in force and the replay-derived invocation count, every
	// late deny explained by the match-time policy or a mutation), and no
	// settled workload may carry a policy-bearing dataset without an
	// allowed admission decision.
	events := a.m.Chain.Events("")
	rep := policy.ReplayDecisions(events)
	for _, mm := range rep.Mismatches {
		add("policy-decision-replay", "%s", mm)
	}
	for _, u := range rep.UnexplainedDenies {
		add("policy-decision-replay", "%s", u)
	}
	for _, v := range market.VerifyPolicySettlements(events) {
		add("policy-settlement", "%s", v)
	}

	// Deployed policy bytecode: every artifact the chain ever accepted
	// must still decode, pass static verification, and re-verify against
	// its embedded source — deployed code stays auditable forever.
	for i, ev := range events {
		if ev.Topic != policy.EvPolicyCode {
			continue
		}
		dataID, _, blob, err := policy.DecodePolicySet(ev.Data)
		if err != nil {
			add("policy-code-audit", "event %d: %v", i, err)
			continue
		}
		mod, err := vm.Decode(blob)
		if err != nil {
			add("policy-code-audit", "event %d: dataset %s artifact: %v", i, dataID.Short(), err)
			continue
		}
		if err := vm.VerifySource(mod); err != nil {
			add("policy-code-audit", "event %d: dataset %s artifact: %v", i, dataID.Short(), err)
		}
	}

	for _, c := range a.erc20s {
		out = append(out, a.checkERC20(c, h)...)
	}
	for _, c := range a.erc721s {
		out = append(out, a.checkERC721(c, h)...)
	}
	return out
}

// storageUint64 decodes a stored uint64, mapping the zero-deletes
// convention (absent key) to 0.
func storageUint64(st *ledger.State, c identity.Address, key string) (uint64, error) {
	raw := st.GetStorage(c, key)
	if raw == nil {
		return 0, nil
	}
	d := contract.NewDecoder(raw)
	return d.Uint64(), d.Err()
}

// checkERC20 verifies token conservation: the balance map sums to the
// recorded total supply.
func (a *Auditor) checkERC20(c identity.Address, h uint64) []Violation {
	var out []Violation
	st := a.m.Chain.State()
	var sum uint64
	for _, key := range st.StorageKeys(c, "bal/") {
		v, err := storageUint64(st, c, key)
		if err != nil {
			out = append(out, Violation{Invariant: "erc20-conservation", Height: h,
				Detail: fmt.Sprintf("%s %s: %v", c.Short(), key, err)})
			continue
		}
		sum += v
	}
	supply, err := storageUint64(st, c, "supply")
	if err != nil {
		return append(out, Violation{Invariant: "erc20-conservation", Height: h,
			Detail: fmt.Sprintf("%s supply: %v", c.Short(), err)})
	}
	if sum != supply {
		out = append(out, Violation{Invariant: "erc20-conservation", Height: h,
			Detail: fmt.Sprintf("%s balances sum %d, supply %d", c.Short(), sum, supply)})
	}
	return out
}

// checkERC721 verifies deed consistency: per-owner counters sum to the
// number of owned tokens, and no approval dangles for a token without
// an owner.
func (a *Auditor) checkERC721(c identity.Address, h uint64) []Violation {
	var out []Violation
	st := a.m.Chain.State()
	owners := st.StorageKeys(c, "owner/")
	var cntSum uint64
	for _, key := range st.StorageKeys(c, "cnt/") {
		v, err := storageUint64(st, c, key)
		if err != nil {
			out = append(out, Violation{Invariant: "erc721-consistency", Height: h,
				Detail: fmt.Sprintf("%s %s: %v", c.Short(), key, err)})
			continue
		}
		cntSum += v
	}
	if cntSum != uint64(len(owners)) {
		out = append(out, Violation{Invariant: "erc721-consistency", Height: h,
			Detail: fmt.Sprintf("%s counters sum %d, %d tokens owned", c.Short(), cntSum, len(owners))})
	}
	owned := make(map[string]bool, len(owners))
	for _, key := range owners {
		owned[key[len("owner/"):]] = true
	}
	for _, key := range st.StorageKeys(c, "approved/") {
		if id := key[len("approved/"):]; !owned[id] {
			out = append(out, Violation{Invariant: "erc721-consistency", Height: h,
				Detail: fmt.Sprintf("%s approval dangles for unowned token %s", c.Short(), id)})
		}
	}
	return out
}
