package market

import (
	"encoding/json"
	"fmt"

	"pds2/internal/contract"
	"pds2/internal/crypto"
	"pds2/internal/identity"
	"pds2/internal/policy"
	"pds2/internal/tee"
)

// WorkloadCodeName is the code name of the per-workload contract. A
// separate instance is deployed for each workload (§III-A: "a separate
// smart contract instance is deployed for managing the lifetime of each
// workload and validate all of its steps").
const WorkloadCodeName = "pds2/workload"

// GasSigVerify is the extra gas charged per signature or quote
// verification inside governance contracts, mirroring Ethereum
// precompile pricing.
const GasSigVerify uint64 = 3_000

// Workload contract events, the on-chain audit trail of Fig. 2.
const (
	EvExecutorRegistered = "ExecutorRegistered"
	EvDataContributed    = "DataContributed"
	EvWorkloadStarted    = "WorkloadStarted"
	EvResultSubmitted    = "ResultSubmitted"
	EvWorkloadDisputed   = "WorkloadDisputed"
	EvRewardPaid         = "RewardPaid"
	EvWorkloadFinalized  = "WorkloadFinalized"
	EvWorkloadCancelled  = "WorkloadCancelled"
)

// WorkloadContract validates every step of one workload's lifecycle:
// executor registration backed by attestation quotes and provider
// participation certificates, start-condition checking, consistent
// result acceptance, reward distribution and expiry refunds.
//
// Storage layout:
//
//	spec                — encoded Spec
//	consumer            — deployer address
//	budget              — escrowed reward amount (also the contract balance)
//	state               — WorkloadState
//	exec/<addr>         — 1 when the executor is registered
//	execlist/<seq>      — executor addresses in registration order
//	execcount
//	prov/<addr>         — number of items contributed by the provider
//	provlist/<seq>      — provider addresses in first-contribution order
//	provcount
//	items               — total contributed items
//	cert/<certID>       — 1 when a participation certificate was consumed
//	data/<dataID>       — 1 when a dataset was already contributed
//	result/<addr>       — the executor's submitted result hash
//	resultcount
//	resulthash          — the accepted result hash (first submission)
//	scores              — encoded contribution scores from the enclave
type WorkloadContract struct{}

// Init escrows the attached value as the reward budget and stores the
// validated spec.
func (WorkloadContract) Init(ctx *contract.Context, args []byte) error {
	spec, err := DecodeSpec(args)
	if err != nil {
		return contract.Revertf("workload init: %v", err)
	}
	if err := spec.Validate(); err != nil {
		return contract.Revertf("workload init: %v", err)
	}
	if spec.ExpiryHeight <= ctx.Height {
		return contract.Revertf("workload init: expiry %d not after current height %d", spec.ExpiryHeight, ctx.Height)
	}
	ctx.Set("spec", args)
	ctx.Set("consumer", ctx.Caller[:])
	if !spec.RewardToken.IsZero() {
		// ERC-20 mode: the budget is pulled in a separate "fund" call
		// once the consumer has approved this contract.
		if ctx.Value != 0 {
			return contract.Revertf("workload init: token-denominated workloads take no native value")
		}
		ctx.SetUint64("budget", spec.TokenBudget)
		ctx.SetUint64("state", uint64(StateFunding))
		return nil
	}
	if ctx.Value == 0 {
		return contract.Revertf("workload init: no reward budget attached")
	}
	ctx.SetUint64("budget", ctx.Value)
	ctx.SetUint64("state", uint64(StateOpen))
	return nil
}

// Call implements contract.Contract.
func (w WorkloadContract) Call(ctx *contract.Context, method string, args []byte) ([]byte, error) {
	in := ctx.Args(method, args)
	switch method {
	case "fund":
		return w.fund(ctx)
	case "registerExecution":
		return w.registerExecution(ctx, in)
	case "start":
		return w.start(ctx)
	case "submitResult":
		return w.submitResult(ctx, in)
	case "finalize":
		return w.finalize(ctx)
	case "cancel":
		return w.cancel(ctx)
	case "state":
		return contract.NewEncoder().Uint64(ctx.GetUint64("state")).Bytes(), nil
	case "spec":
		return ctx.Get("spec"), nil
	case "result":
		var h crypto.Digest
		copy(h[:], ctx.Get("resulthash"))
		return contract.NewEncoder().Digest(h).Blob(ctx.Get("scores")).Bytes(), nil
	case "contributionOf":
		return contract.NewEncoder().Uint64(ctx.GetUint64("prov/" + in.Address().Hex())).Bytes(), nil
	case "providerAt":
		idx := in.Uint64()
		raw := ctx.Get(fmt.Sprintf("provlist/%016d", idx))
		if len(raw) != identity.AddressSize {
			return nil, contract.Revertf("providerAt: index %d out of range", idx)
		}
		var addr identity.Address
		copy(addr[:], raw)
		return contract.NewEncoder().Address(addr).Bytes(), nil
	case "progress":
		// → (providerCount, items, execCount, resultCount)
		e := contract.NewEncoder()
		for _, key := range []string{"provcount", "items", "execcount", "resultcount"} {
			e.Uint64(ctx.GetUint64(key))
		}
		return e.Bytes(), nil
	default:
		return nil, fmt.Errorf("%w: workload.%s", contract.ErrUnknownMethod, method)
	}
}

// loadSpec reads and decodes the stored spec; a corrupt one halts.
func (WorkloadContract) loadSpec(ctx *contract.Context) *Spec {
	spec, err := DecodeSpec(ctx.Get("spec"))
	if err != nil {
		ctx.Halt(contract.Revertf("corrupt spec: %v", err))
	}
	return spec
}

func (WorkloadContract) requireState(ctx *contract.Context, want WorkloadState) error {
	if st := WorkloadState(ctx.GetUint64("state")); st != want {
		return contract.Revertf("workload is %v, expected %v", st, want)
	}
	return nil
}

// fund pulls the ERC-20 budget into escrow (Funding → Open). The
// consumer must have approved this contract for the full TokenBudget.
func (w WorkloadContract) fund(ctx *contract.Context) ([]byte, error) {
	if err := w.requireState(ctx, StateFunding); err != nil {
		return nil, err
	}
	if string(ctx.Get("consumer")) != string(ctx.Caller[:]) {
		return nil, contract.Revertf("fund: only the consumer can fund")
	}
	spec := w.loadSpec(ctx)
	args := contract.NewEncoder().
		Address(ctx.Caller).Address(ctx.Self).Uint64(spec.TokenBudget).Bytes()
	if _, err := ctx.CallContract(spec.RewardToken, "transferFrom", args, 0); err != nil {
		return nil, contract.Revertf("fund: escrow pull failed: %v", err)
	}
	ctx.SetUint64("state", uint64(StateOpen))
	ctx.Emit("WorkloadFunded", contract.NewEncoder().
		Address(spec.RewardToken).Uint64(spec.TokenBudget).Bytes())
	return nil, nil
}

// pay moves reward value to an account in the workload's denomination.
func (w WorkloadContract) pay(ctx *contract.Context, spec *Spec, to identity.Address, amount uint64) error {
	if spec.RewardToken.IsZero() {
		ctx.Transfer(to, amount)
		return nil
	}
	args := contract.NewEncoder().Address(to).Uint64(amount).Bytes()
	_, err := ctx.CallContract(spec.RewardToken, "transfer", args, 0)
	return err
}

// registerExecution validates an executor's attestation quote and its
// providers' participation certificates, recording the contributions
// (the Fig. 2 "register participation + certificates" step).
// Args: (quote blob, certs blob) — both JSON.
func (w WorkloadContract) registerExecution(ctx *contract.Context, in *contract.Decoder) ([]byte, error) {
	if err := w.requireState(ctx, StateOpen); err != nil {
		return nil, err
	}
	spec := w.loadSpec(ctx)
	if ctx.Height > spec.ExpiryHeight {
		return nil, contract.Revertf("workload expired at height %d", spec.ExpiryHeight)
	}
	quoteRaw, certsRaw := in.Blob(), in.Blob()

	if len(ctx.Get("exec/"+ctx.Caller.Hex())) > 0 {
		return nil, contract.Revertf("executor %s already registered", ctx.Caller.Short())
	}

	// Verify the attestation quote: right authority, right code, bound to
	// this workload and this executor.
	wid := WorkloadIDFor(ctx.Self)
	var quote tee.Quote
	if err := json.Unmarshal(quoteRaw, &quote); err != nil {
		return nil, contract.Revertf("registerExecution: bad quote: %v", err)
	}
	ctx.UseGas(2 * GasSigVerify)
	if err := tee.VerifyQuote(spec.QAPub, quote, spec.Measurement); err != nil {
		return nil, contract.Revertf("registerExecution: %v", err)
	}
	if quote.ReportData != RegistrationReport(wid, ctx.Caller) {
		return nil, contract.Revertf("registerExecution: quote not bound to this registration")
	}

	var certs []identity.ParticipationCert
	if err := json.Unmarshal(certsRaw, &certs); err != nil {
		return nil, contract.Revertf("registerExecution: bad certificates: %v", err)
	}
	if len(certs) == 0 {
		return nil, contract.Revertf("registerExecution: no participation certificates")
	}

	// Admission-layer usage control: before any registration state
	// commits, every contributed dataset's policy is enforced through
	// the registry, which logs one PolicyDecision event per
	// policy-bearing dataset and consumes one invocation each on an
	// all-allow batch. A denial must NOT revert — reverting would erase
	// the decision log — so the registration is abandoned with the
	// encoded decisions as the return value and no state change.
	if !spec.Registry.IsZero() {
		ids := make([]crypto.Digest, len(certs))
		for i, cert := range certs {
			ids[i] = cert.DataRef
		}
		agg := ctx.GetUint64("items") + uint64(len(certs))
		args := enforcePolicyArgs(policy.LayerAdmission, spec.ComputationClass(), spec.Purpose, agg, ids...)
		ret, err := ctx.CallContract(spec.Registry, "enforcePolicy", args, 0)
		if err != nil {
			return nil, contract.Revertf("registerExecution: policy enforcement: %v", err)
		}
		recs, err := policy.DecodeDecisionRecords(ret)
		if err != nil {
			return nil, contract.Revertf("registerExecution: policy enforcement: %v", err)
		}
		if policy.FirstDenial(recs) != nil {
			return ret, nil // admission denied: decisions logged, nothing registered
		}
	}

	for i, cert := range certs {
		ctx.UseGas(GasSigVerify)
		if err := cert.Verify(wid, ctx.Caller, ctx.Height); err != nil {
			return nil, contract.Revertf("registerExecution: certificate %d: %v", i, err)
		}
		certID := cert.ID()
		if len(ctx.Get("cert/"+certID.Hex())) > 0 {
			return nil, contract.Revertf("registerExecution: certificate %d already consumed", i)
		}
		if len(ctx.Get("data/"+cert.DataRef.Hex())) > 0 {
			return nil, contract.Revertf("registerExecution: data %s already contributed", cert.DataRef.Short())
		}
		ctx.Set("cert/"+certID.Hex(), []byte{1})
		ctx.Set("data/"+cert.DataRef.Hex(), []byte{1})
		// Track the provider's contribution count and ordering.
		cnt := ctx.GetUint64("prov/" + cert.Provider.Hex())
		if cnt == 0 {
			pc := ctx.GetUint64("provcount")
			ctx.Set(fmt.Sprintf("provlist/%016d", pc), cert.Provider[:])
			ctx.SetUint64("provcount", pc+1)
		}
		ctx.SetUint64("prov/"+cert.Provider.Hex(), cnt+1)
		ctx.SetUint64("items", ctx.GetUint64("items")+1)
		ctx.Emit(EvDataContributed, contract.NewEncoder().
			Digest(cert.DataRef).Address(cert.Provider).Address(ctx.Caller).Bytes())
	}

	ec := ctx.GetUint64("execcount")
	ctx.Set(fmt.Sprintf("execlist/%016d", ec), ctx.Caller[:])
	ctx.SetUint64("execcount", ec+1)
	ctx.Set("exec/"+ctx.Caller.Hex(), []byte{1})
	ctx.Emit(EvExecutorRegistered, contract.NewEncoder().
		Address(ctx.Caller).Uint64(uint64(len(certs))).Bytes())
	return nil, nil
}

// start transitions Open → Running once the consumer's conditions hold
// (the Fig. 2 "conditions met → instruct executors" step). Anyone may
// call it; the contract is the arbiter.
func (w WorkloadContract) start(ctx *contract.Context) ([]byte, error) {
	if err := w.requireState(ctx, StateOpen); err != nil {
		return nil, err
	}
	spec := w.loadSpec(ctx)
	pc, items, ec := ctx.GetUint64("provcount"), ctx.GetUint64("items"), ctx.GetUint64("execcount")
	if pc < spec.MinProviders || items < spec.MinItems || ec == 0 {
		return nil, contract.Revertf("conditions not met: providers %d/%d, items %d/%d, executors %d",
			pc, spec.MinProviders, items, spec.MinItems, ec)
	}
	ctx.SetUint64("state", uint64(StateRunning))
	ctx.Emit(EvWorkloadStarted, contract.NewEncoder().
		Uint64(pc).Uint64(items).Uint64(ec).Bytes())
	return nil, nil
}

// submitResult accepts an executor's attested result. The first
// submission fixes the expected result hash; any later conflicting
// submission marks the workload Disputed and refunds the consumer —
// tamper-evident aggregation (§II-E).
// Args: (resultHash digest, scores blob, quote blob).
func (w WorkloadContract) submitResult(ctx *contract.Context, in *contract.Decoder) ([]byte, error) {
	if err := w.requireState(ctx, StateRunning); err != nil {
		return nil, err
	}
	resultHash, scoresRaw, quoteRaw := in.Digest(), in.Blob(), in.Blob()
	if len(ctx.Get("exec/"+ctx.Caller.Hex())) == 0 {
		return nil, contract.Revertf("submitResult: %s is not a registered executor", ctx.Caller.Short())
	}
	if len(ctx.Get("result/"+ctx.Caller.Hex())) > 0 {
		return nil, contract.Revertf("submitResult: executor already submitted")
	}

	spec := w.loadSpec(ctx)
	wid := WorkloadIDFor(ctx.Self)
	var quote tee.Quote
	if err := json.Unmarshal(quoteRaw, &quote); err != nil {
		return nil, contract.Revertf("submitResult: bad quote: %v", err)
	}
	ctx.UseGas(2 * GasSigVerify)
	if err := tee.VerifyQuote(spec.QAPub, quote, spec.Measurement); err != nil {
		return nil, contract.Revertf("submitResult: %v", err)
	}
	if quote.ReportData != ResultReport(wid, resultHash, crypto.HashBytes(scoresRaw)) {
		return nil, contract.Revertf("submitResult: quote not bound to this result")
	}

	if accepted := ctx.Get("resulthash"); len(accepted) == 0 {
		// First submission: validate and store the scores.
		if err := w.validateScores(ctx, scoresRaw); err != nil {
			return nil, err
		}
		ctx.Set("resulthash", resultHash[:])
		ctx.Set("scores", scoresRaw)
	} else {
		var acceptedHash crypto.Digest
		copy(acceptedHash[:], accepted)
		if acceptedHash != resultHash {
			// Conflicting attested results: dispute and refund.
			ctx.SetUint64("state", uint64(StateDisputed))
			if err := w.refundConsumer(ctx); err != nil {
				return nil, err
			}
			ctx.Emit(EvWorkloadDisputed, contract.NewEncoder().
				Address(ctx.Caller).Digest(resultHash).Digest(acceptedHash).Bytes())
			return nil, nil
		}
	}
	ctx.Set("result/"+ctx.Caller.Hex(), resultHash[:])
	ctx.SetUint64("resultcount", ctx.GetUint64("resultcount")+1)
	ctx.Emit(EvResultSubmitted, contract.NewEncoder().
		Address(ctx.Caller).Digest(resultHash).Bytes())
	return nil, nil
}

// validateScores checks that the submitted contribution scores cover
// exactly the registered providers, in registered order.
func (WorkloadContract) validateScores(ctx *contract.Context, raw []byte) error {
	scores, err := DecodeScores(raw)
	if err != nil {
		return contract.Revertf("submitResult: bad scores: %v", err)
	}
	if pc := ctx.GetUint64("provcount"); uint64(len(scores)) != pc {
		return contract.Revertf("submitResult: %d scores for %d providers", len(scores), pc)
	}
	for i, s := range scores {
		var want identity.Address
		copy(want[:], ctx.Get(fmt.Sprintf("provlist/%016d", i)))
		if s.Provider != want {
			return contract.Revertf("submitResult: score %d names %s, expected %s", i, s.Provider.Short(), want.Short())
		}
	}
	return nil
}

// finalize distributes rewards once every registered executor has
// submitted a matching result: the executor fee is split equally among
// executors and the remainder is allocated to providers pro rata by the
// enclave-attested contribution scores.
func (w WorkloadContract) finalize(ctx *contract.Context) ([]byte, error) {
	if err := w.requireState(ctx, StateRunning); err != nil {
		return nil, err
	}
	ec, rc := ctx.GetUint64("execcount"), ctx.GetUint64("resultcount")
	if rc < ec {
		return nil, contract.Revertf("finalize: %d of %d executors have submitted", rc, ec)
	}
	spec := w.loadSpec(ctx)
	budget := ctx.GetUint64("budget")
	fee := budget * spec.ExecutorFeeBps / 10_000
	providerPool := budget - fee

	// Pay executors the fee, split equally (remainder to the first).
	if ec > 0 && fee > 0 {
		each := fee / ec
		rem := fee - each*ec
		for i := uint64(0); i < ec; i++ {
			var addr identity.Address
			copy(addr[:], ctx.Get(fmt.Sprintf("execlist/%016d", i)))
			amount := each
			if i == 0 {
				amount += rem
			}
			if amount == 0 {
				continue
			}
			if err := w.pay(ctx, spec, addr, amount); err != nil {
				return nil, err
			}
			ctx.Emit(EvRewardPaid, contract.NewEncoder().
				Address(addr).Uint64(amount).String("executor-fee").Bytes())
		}
	}

	// Pay providers pro rata by attested scores.
	scores, err := DecodeScores(ctx.Get("scores"))
	if err != nil {
		ctx.Halt(contract.Revertf("finalize: corrupt scores: %v", err))
	}
	var total uint64
	for _, s := range scores {
		total += s.Score
	}
	var paid uint64
	for i, s := range scores {
		var amount uint64
		if total > 0 {
			amount = providerPool * s.Score / total
		} else {
			amount = providerPool / uint64(len(scores))
		}
		if i == len(scores)-1 {
			amount = providerPool - paid // rounding residue to the last
		}
		paid += amount
		if amount == 0 {
			continue
		}
		if err := w.pay(ctx, spec, s.Provider, amount); err != nil {
			return nil, err
		}
		ctx.Emit(EvRewardPaid, contract.NewEncoder().
			Address(s.Provider).Uint64(amount).String("provider-reward").Bytes())
	}

	ctx.SetUint64("state", uint64(StateComplete))
	var resultHash crypto.Digest
	copy(resultHash[:], ctx.Get("resulthash"))
	ctx.Emit(EvWorkloadFinalized, contract.NewEncoder().
		Digest(resultHash).Uint64(budget).Bytes())
	return nil, nil
}

// cancel refunds the consumer after expiry when the workload never
// completed.
func (w WorkloadContract) cancel(ctx *contract.Context) ([]byte, error) {
	if st := WorkloadState(ctx.GetUint64("state")); st != StateOpen && st != StateRunning {
		return nil, contract.Revertf("cancel: workload is %v", st)
	}
	spec := w.loadSpec(ctx)
	if ctx.Height <= spec.ExpiryHeight {
		return nil, contract.Revertf("cancel: not expired until height %d", spec.ExpiryHeight)
	}
	ctx.SetUint64("state", uint64(StateCancelled))
	if err := w.refundConsumer(ctx); err != nil {
		return nil, err
	}
	ctx.Emit(EvWorkloadCancelled, nil)
	return nil, nil
}

func (w WorkloadContract) refundConsumer(ctx *contract.Context) error {
	var consumer identity.Address
	copy(consumer[:], ctx.Get("consumer"))
	spec := w.loadSpec(ctx)
	if spec.RewardToken.IsZero() {
		if balance := ctx.BalanceOf(ctx.Self); balance > 0 {
			ctx.Transfer(consumer, balance)
		}
		return nil
	}
	// Token mode: no payouts happen before finalize, so the full escrow
	// (if funding completed) goes back. An unfunded workload refunds
	// nothing.
	if WorkloadState(ctx.GetUint64("state")) == StateFunding {
		return nil
	}
	return w.pay(ctx, spec, consumer, ctx.GetUint64("budget"))
}

// Score is one provider's attested contribution weight.
type Score struct {
	Provider identity.Address
	Score    uint64
}

// EncodeScores serializes contribution scores with the contract ABI.
func EncodeScores(scores []Score) []byte {
	enc := contract.NewEncoder().Uint64(uint64(len(scores)))
	for _, s := range scores {
		enc.Address(s.Provider).Uint64(s.Score)
	}
	return enc.Bytes()
}

// DecodeScores inverts EncodeScores.
func DecodeScores(raw []byte) ([]Score, error) {
	d := contract.NewDecoder(raw)
	n := d.Uint64()
	if n > 1<<20 {
		return nil, fmt.Errorf("market: absurd score count %d", n)
	}
	out := make([]Score, 0, n)
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		out = append(out, Score{Provider: d.Address(), Score: d.Uint64()})
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	return out, nil
}
