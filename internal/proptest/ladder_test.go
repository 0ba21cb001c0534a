package proptest

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"
	"time"

	"pds2/internal/contract"
	"pds2/internal/crypto"
	"pds2/internal/identity"
	"pds2/internal/ledger"
	"pds2/internal/market"
	"pds2/internal/policy"
	"pds2/internal/token"
	"pds2/internal/vm"
)

// ladderDigest pins every failure a contract transaction can meet on
// its way to completion. It was computed before contract execution was
// restructured and must never be edited to make a change pass: a
// change that moves it changed a receipt, a gas figure or an error
// text somewhere on the ladder.
const ladderDigest = "3ed875bdd112374c130a97b8ecd1337728c97b48620588e1a3750cb432dc441a"

// ladderStride is the gas step between rungs below a transaction's gas
// used; the 16 limits just under it are always run as well.
const ladderStride = 97

// statefulPolicy loads, stores and emits, so its evaluation in a view
// fails on the first write.
const statefulPolicy = `
let n = load("evals")
if n == false { n = 0 }
n = n + 1
store("evals", n)
emit("probe", layer, n)
if n > 2 { deny "invocations_exhausted" "max_invocations" }
allow
`

// TestFailureLadderGolden re-applies every transaction of a fixed-seed
// history on its own pre-state under a ladder of gas limits, from the
// intrinsic gas up to the gas it used, and folds each outcome (status,
// error, gas used, return, events) into one digest, together with the
// error text of views that fail. The history covers every registry
// method, native and token workload lifecycles (settled, denied at
// match and at admission, cancelled), ERC-20/721 calls, declarative
// policies and deployed programs, so out-of-gas and reverts are hit at
// every metered step of every contract.
func TestFailureLadderGolden(t *testing.T) {
	start := time.Now()
	res := ladderHistory(t)
	h := sha256.New()
	ladderScript(t, res, h)

	runs := ladderReplay(t, res.Market, h)
	got := hex.EncodeToString(h.Sum(nil))
	t.Logf("%d ladder runs over %d blocks in %v", runs, res.Market.Height(), time.Since(start))
	if got != ladderDigest {
		t.Fatalf("failure ladder digest = %s, want %s", got, ladderDigest)
	}
}

// ladderHistory runs the fixed-seed plan both golden tests start
// from, with every lifecycle mode appended.
func ladderHistory(t *testing.T) *Result {
	t.Helper()
	cfg := Config{Seed: 38, Ops: 90, Lifecycles: 1}
	plan := Plan(cfg)
	for mode := uint64(0); mode < 6; mode++ {
		plan = append(plan, Op{Kind: OpLifecycle, Seed: 600 + mode}) // lifecycle mode = Seed % 6
	}
	res, err := Run(cfg, plan)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed() {
		t.Fatalf("history violated invariants:\n%s", res.History.Fingerprint())
	}
	return res
}

// ladderScript appends the calls a generated history does not make —
// every view-shaped method as a transaction, the registry's argument
// and permission reverts, a stateful policy program, and token and
// native workloads that fund, fail to fund and cancel — then folds the
// error text of views that must fail.
func ladderScript(t *testing.T, res *Result, h hash.Hash) {
	t.Helper()
	m := res.Market
	a0 := res.Sender
	rng := crypto.NewDRBGFromUint64(38, "proptest/ladder")
	a1 := identity.New("ladder-1", rng.Fork("a1"))
	if _, err := market.MustSucceed(m.SendAndSeal(a0, a1.Address(), 2_000_000, nil)); err != nil {
		t.Fatal(err)
	}
	var pending []*ledger.Transaction
	queue := func(from *identity.Identity, to identity.Address, value uint64, data []byte) {
		tx := m.SignedTx(from, to, value, data)
		if err := m.Submit(tx); err != nil {
			t.Fatalf("submit: %v", err)
		}
		pending = append(pending, tx)
	}
	seal := func() {
		if _, err := m.SealBlock(); err != nil {
			t.Fatal(err)
		}
		for _, tx := range pending {
			if _, ok := m.Chain.Receipt(tx.Hash()); !ok {
				t.Fatalf("tx %s not included", tx.Hash().Short())
			}
		}
		pending = pending[:0]
	}
	call := func(method string, e *contract.Encoder) []byte {
		if e == nil {
			return contract.CallData(method, nil)
		}
		return contract.CallData(method, e.Bytes())
	}
	enc := contract.NewEncoder

	// Registry: a dataset with a stateful program, one with a
	// declarative policy, and every method, read or write, as a tx.
	progID := crypto.HashString("ladder/prog")
	polID := crypto.HashString("ladder/pol")
	artifact, err := vm.BuildSource(statefulPolicy)
	if err != nil {
		t.Fatal(err)
	}
	pol := &policy.Policy{
		AllowedClasses: []string{market.DefaultComputationClass},
		MinAggregation: 2, ExpiryHeight: m.Height() + 500, MaxInvocations: 3,
	}
	reg := m.Registry
	queue(a1, reg, 0, market.RegisterDataData(progID, crypto.HashString("meta/prog")))
	queue(a1, reg, 0, market.RegisterDataData(polID, crypto.HashString("meta/pol")))
	queue(a1, reg, 0, market.DeployPolicyData(progID, artifact))
	queue(a1, reg, 0, market.SetPolicyData(polID, pol))
	seal()
	query := func(id crypto.Digest, layer, class, purpose string, agg uint64) *contract.Encoder {
		return enc().Digest(id).String(layer).String(class).String(purpose).Uint64(agg)
	}
	workloads, err := m.Workloads()
	if err != nil || len(workloads) == 0 {
		t.Fatalf("workloads: %v (%d)", err, len(workloads))
	}
	var wl identity.Address
	for _, w := range workloads {
		if st, err := m.WorkloadStateOf(w); err == nil && st == market.StateComplete {
			wl = w
			break
		}
	}
	if wl.IsZero() {
		t.Fatal("history settled no workload")
	}
	for _, data := range [][]byte{
		market.RegisterActorData(identity.RoleProvider),
		market.RegisterActorData("wizard"),
		call("hasRole", enc().Address(a1.Address()).String(string(identity.RoleProvider))),
		call("hasRole", enc().Address(a1.Address())),
		call("setDeeds", enc().Address(res.Deeds)),
		call("deeds", nil),
		call("dataOwner", enc().Digest(progID)),
		market.RegisterDataData(progID, crypto.HashString("meta/again")),
		market.RegisterWorkloadData(a1.Address()),
		call("workloadCount", nil),
		call("workloadAt", enc().Uint64(0)),
		call("workloadAt", enc().Uint64(1_000)),
		call("policyCodeOf", enc().Digest(progID)),
		call("policyOf", enc().Digest(polID)),
		call("policyUses", enc().Digest(polID)),
		call("evalPolicy", query(progID, policy.LayerMatch, market.DefaultComputationClass, "x", 2)),
		call("evalPolicy", query(polID, policy.LayerMatch, "stats", "", 1)),
		call("evalPolicy", query(polID, "orbit", "stats", "", 1)),
		market.EnforcePolicyData(policy.LayerMatch, market.DefaultComputationClass, "p", 3, progID, polID),
		market.EnforcePolicyData(policy.LayerMatch, "stats", "", 1, polID),
		market.EnforcePolicyData(policy.LayerMatch, "stats", "", 1, polID, polID),
		market.EnforcePolicyData(policy.LayerAdmission, market.DefaultComputationClass, "", 3, polID),
		market.EnforcePolicyData(policy.LayerMatch, "stats", "", 1),
		market.SetPolicyData(progID, pol),
		market.DeployPolicyData(progID, []byte("not a container")),
		call("noSuchMethod", nil),
	} {
		queue(a1, reg, 0, data)
	}
	queue(a0, reg, 0, market.DeployPolicyData(polID, artifact))
	seal()

	// Workload reads and out-of-state calls as transactions, against
	// a settled workload.
	for _, data := range [][]byte{
		call("state", nil), call("spec", nil), call("result", nil),
		call("contributionOf", enc().Address(a1.Address())),
		call("providerAt", enc().Uint64(0)), call("providerAt", enc().Uint64(9)),
		call("progress", nil), call("start", nil), call("cancel", nil),
		call("finalize", nil), call("fund", nil), call("submitResult", nil),
		call("registerExecution", nil), call("nope", nil),
	} {
		queue(a1, wl, 0, data)
	}
	seal()

	// ERC-20 and ERC-721 methods not in the generated plan.
	coin, deeds := res.Coin, res.Deeds
	for _, data := range [][]byte{
		call("balanceOf", enc().Address(a0.Address())), call("totalSupply", nil),
		call("name", nil), call("symbol", nil),
		call("allowance", enc().Address(a0.Address()).Address(a1.Address())),
		token.ERC20TransferData(a0.Address(), 1), token.ERC20TransferData(a1.Address(), 7),
		token.ERC20BurnData(1 << 40), token.ERC20MintData(a1.Address(), ^uint64(0)),
		call("transfer", enc().Address(a0.Address())),
	} {
		queue(a0, coin, 0, data)
	}
	deed := crypto.HashString("ladder/deed")
	for _, data := range [][]byte{
		token.ERC721MintData(a0.Address(), deed, []byte("uri")),
		call("name", nil), call("ownerOf", enc().Digest(deed)),
		call("ownerOf", enc().Digest(progID)),
		call("balanceOf", enc().Address(a0.Address())),
		call("tokenURI", enc().Digest(deed)),
		call("setApprovalForAll", enc().Address(a1.Address()).Bool(true)),
		call("setApprovalForAll", enc().Address(a1.Address()).Bool(false)),
		token.ERC721ApproveData(a1.Address(), deed),
		token.ERC721TransferFromData(a0.Address(), a1.Address(), deed),
		token.ERC721TransferMinterData(a0.Address()),
	} {
		queue(a0, deeds, 0, data)
	}
	seal()
	queue(a1, deeds, 0, token.ERC721TransferFromData(a1.Address(), a0.Address(), deed))
	queue(a1, deeds, 0, token.ERC721TransferMinterData(a1.Address()))
	queue(a1, deeds, 0, token.ERC721MintData(a1.Address(), deed, nil))
	seal()

	// A token-denominated workload: init, a fund without allowance (a
	// nested revert), approve, fund, an early cancel and a refund by
	// token transfer after expiry; and a native one cancelled unstarted.
	params := market.TrainerParams{Dim: 2, Epochs: 1, Lambda: 1e-3}
	spec := func(expiry uint64) *market.Spec {
		return &market.Spec{
			Predicate: `category isa "sensor"`, MinProviders: 1, MinItems: 1,
			ExpiryHeight: expiry, ExecutorFeeBps: 1_000,
			Measurement: market.TrainerMeasurement(params.Encode()),
			QAPub:       m.QA.PublicKey(), Params: params.Encode(), Registry: reg,
		}
	}
	tokSpec := spec(m.Height() + 4)
	tokSpec.RewardToken, tokSpec.TokenBudget = coin, 5_000
	rcpt, err := market.MustSucceed(m.SendAndSeal(a0, identity.ZeroAddress, 0,
		contract.DeployData(market.WorkloadCodeName, tokSpec.Encode())))
	if err != nil {
		t.Fatal(err)
	}
	var tokWL identity.Address
	copy(tokWL[:], rcpt.Return)
	natSpec := spec(m.Height() + 4)
	rcpt, err = market.MustSucceed(m.SendAndSeal(a1, identity.ZeroAddress, 30_000,
		contract.DeployData(market.WorkloadCodeName, natSpec.Encode())))
	if err != nil {
		t.Fatal(err)
	}
	var natWL identity.Address
	copy(natWL[:], rcpt.Return)
	queue(a0, tokWL, 0, call("fund", nil))
	queue(a0, coin, 0, token.ERC20ApproveData(tokWL, tokSpec.TokenBudget))
	queue(a1, tokWL, 0, call("fund", nil))
	queue(a0, reg, 0, market.RegisterWorkloadData(tokWL))
	seal()
	queue(a0, tokWL, 0, call("fund", nil))
	queue(a0, tokWL, 0, call("cancel", nil))
	queue(a1, natWL, 0, call("cancel", nil))
	seal()
	for m.Height() <= tokSpec.ExpiryHeight+1 {
		seal()
	}
	queue(a0, tokWL, 0, call("cancel", nil))
	queue(a1, natWL, 0, call("cancel", nil))
	queue(a1, natWL, 0, call("cancel", nil))
	queue(a0, identity.ZeroAddress, 0, contract.DeployData(market.WorkloadCodeName, []byte{1, 2}))
	queue(a0, identity.ZeroAddress, 0, contract.DeployData(token.ERC20CodeName, token.ERC20InitArgs("T", "T", 0)))
	queue(a0, identity.ZeroAddress, 0, contract.DeployData(token.ERC721CodeName, append(token.ERC721InitArgs("N"), 0)))
	queue(a0, identity.ZeroAddress, 0, contract.DeployData("no/such/code", nil))
	seal()

	// Views that fail: every mutation kind inside a static frame, and a
	// program evaluation that stores.
	for _, v := range []struct {
		to     identity.Address
		method string
		args   []byte
	}{
		{reg, "evalPolicy", query(progID, policy.LayerMatch, market.DefaultComputationClass, "", 2).Bytes()},
		{reg, "registerActor", enc().String(string(identity.RoleConsumer)).Bytes()},
		{reg, "enforcePolicy", enforceArgs(polID)},
		{coin, "transfer", enc().Address(a1.Address()).Uint64(1).Bytes()},
		{natWL, "cancel", nil},
		{wl, "progress", nil},
		{reg, "evalPolicy", enc().Digest(progID).Bytes()},
	} {
		ret, err := m.View(a0.Address(), v.to, v.method, v.args)
		writeField(h, ret)
		if err != nil {
			writeField(h, []byte(err.Error()))
		}
	}
}

// enforceArgs is the raw enforcePolicy argument encoding for one
// dataset at the match layer.
func enforceArgs(id crypto.Digest) []byte {
	d := market.EnforcePolicyData(policy.LayerMatch, "stats", "", 1, id)
	dec := contract.NewDecoder(d)
	_ = dec.String()
	args := dec.Blob()
	if err := dec.Err(); err != nil {
		panic(err)
	}
	return args
}

// ladderReplay re-executes the market's chain from genesis with a fresh
// runtime. Before applying each transaction for real, it applies it on
// the same pre-state under every ladder limit and reverts. The real
// application must reproduce the sealed receipt and every block its
// state root.
func ladderReplay(t *testing.T, m *market.Market, h hash.Hash) int {
	t.Helper()
	exp := m.Chain.ExportConfig()
	ch, err := ledger.NewChain(ledger.ChainConfig{Authorities: exp.Authorities, GenesisAlloc: exp.GenesisAlloc})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := market.NewRuntime()
	if err != nil {
		t.Fatal(err)
	}
	st := ch.State()
	runs := 0
	for height := uint64(1); height <= m.Chain.Height(); height++ {
		blk, err := m.Chain.BlockAt(height)
		if err != nil {
			t.Fatal(err)
		}
		for _, tx := range blk.Txs {
			want, ok := m.Chain.Receipt(tx.Hash())
			if !ok {
				t.Fatalf("height %d: receipt of %s missing", height, tx.Hash().Short())
			}
			for _, limit := range ladderLimits(tx.IntrinsicGas(), want.GasUsed) {
				probe := *tx
				probe.GasLimit = limit
				snap := st.Snapshot()
				rcpt, err := rt.Apply(st, &probe, height)
				if err != nil {
					t.Fatalf("height %d: limit %d: %v", height, limit, err)
				}
				foldReceipt(h, limit, rcpt)
				st.RevertTo(snap)
				runs++
			}
			rcpt, err := rt.Apply(st, tx, height)
			if err != nil {
				t.Fatal(err)
			}
			if rcpt.Status != want.Status || rcpt.GasUsed != want.GasUsed || rcpt.Err != want.Err ||
				len(rcpt.Events) != len(want.Events) {
				t.Fatalf("height %d: replayed receipt %+v, sealed %+v", height, rcpt, want)
			}
			foldReceipt(h, tx.GasLimit, rcpt)
		}
		if root := st.Root(); root != blk.Header.StateRoot {
			t.Fatalf("height %d: replayed root %s, sealed %s", height, root.Short(), blk.Header.StateRoot.Short())
		}
		st.Commit()
	}
	return runs
}

// ladderLimits lists the gas limits one transaction is re-applied
// under: from intrinsic gas up to gas used at ladderStride, plus the 16
// limits just below gas used.
func ladderLimits(intrinsic, used uint64) []uint64 {
	var out []uint64
	for l := intrinsic; l+16 < used; l += ladderStride {
		out = append(out, l)
	}
	for l := max(intrinsic, used-min(used, 16)); l < used; l++ {
		out = append(out, l)
	}
	return out
}

func foldReceipt(h hash.Hash, limit uint64, r *ledger.Receipt) {
	writeUint(h, limit)
	writeUint(h, uint64(r.Status))
	writeUint(h, r.GasUsed)
	writeField(h, []byte(r.Err))
	writeField(h, r.Return)
	writeUint(h, uint64(len(r.Events)))
	for _, ev := range r.Events {
		writeField(h, ev.Contract[:])
		writeField(h, []byte(ev.Topic))
		writeField(h, ev.Data)
	}
}

func writeUint(h hash.Hash, v uint64) {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	h.Write(b[:])
}

func writeField(h hash.Hash, b []byte) {
	writeUint(h, uint64(len(b)))
	h.Write(b)
}
