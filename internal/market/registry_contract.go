package market

import (
	"errors"
	"fmt"

	"pds2/internal/contract"
	"pds2/internal/crypto"
	"pds2/internal/identity"
	"pds2/internal/policy"
	"pds2/internal/semantic"
	"pds2/internal/vm"
)

// RegistryCodeName is the code name of the platform registry contract.
const RegistryCodeName = "pds2/registry"

// RegistryContract is the governance layer's directory (§III-A: the
// blockchain "is used for the registration of all actors … as well as
// the registration of datasets and workloads, by means of their
// hashes"). It records actor roles, dataset registrations (digest →
// owner) and the directory of workload contracts, emitting events that
// providers' storage subsystems watch to learn about new workloads.
//
// Storage layout:
//
//	owner               — the deploying governor (may wire the deeds NFT)
//	deeds               — ERC-721 contract minting data deeds (optional)
//	role/<role>/<addr>  — actor has role
//	data/<dataID>       — owner address of a registered dataset
//	datameta/<dataID>   — hash of the dataset's metadata document
//	policy/<dataID>     — encoded usage-control policy (absent = permissive)
//	polcode/<dataID>    — deployed policy bytecode artifact (overrides policy/)
//	polstate/<dataID>/… — state partition of the dataset's policy program
//	poluse/<dataID>     — admissions that have consumed the dataset
//	wl/<seq>            — workload contract address, in registration order
//	wlseq               — number of registered workloads
//	wlreg/<addr>        — reverse marker: address is a registered workload
type RegistryContract struct {
	// exec runs deployed policy programs; nil runs vm.Execute. Only
	// NewRuntimeWithExec sets it.
	exec func(*vm.Module, semantic.Host) (semantic.Verdict, error)
}

// GasPolicyEval is charged per dataset for a usage-control policy
// evaluation on top of the metered storage reads.
const GasPolicyEval = 500

// maxPolicyBatch bounds the datasets one enforcePolicy call may cover.
const maxPolicyBatch = 256

// Init implements contract.Contract; the registry has no constructor
// arguments. The deployer becomes the registry owner, able to wire the
// data-deeds NFT contract once.
func (RegistryContract) Init(ctx *contract.Context, args []byte) error {
	if len(args) != 0 {
		return contract.Revertf("registry takes no constructor arguments")
	}
	ctx.Set("owner", ctx.Caller[:])
	return nil
}

// Registry events.
const (
	EvActorRegistered    = "ActorRegistered"
	EvDataRegistered     = "DataRegistered"
	EvWorkloadRegistered = "WorkloadRegistered"

	// EvPolicyCodeDeployed carries (dataID digest, owner address,
	// artifact blob): a compiled policy program was bound to a dataset.
	// The payload layout matches EvPolicySet so audit tooling can decode
	// both with policy.DecodePolicySet.
	EvPolicyCodeDeployed = policy.EvPolicyCode
)

// Call implements contract.Contract.
func (r RegistryContract) Call(ctx *contract.Context, method string, args []byte) ([]byte, error) {
	in := ctx.Args(method, args)
	switch method {
	case "registerActor":
		// (role string) — the caller registers itself under a role.
		role := in.String()
		switch identity.Role(role) {
		case identity.RoleConsumer, identity.RoleProvider, identity.RoleExecutor,
			identity.RoleStorage, identity.RoleGovernor, identity.RoleDevice:
		default:
			return nil, contract.Revertf("registerActor: unknown role %q", role)
		}
		ctx.Set("role/"+role+"/"+ctx.Caller.Hex(), []byte{1})
		ctx.Emit(EvActorRegistered, contract.NewEncoder().Address(ctx.Caller).String(role).Bytes())
		return nil, nil

	case "hasRole":
		// (addr, role) → bool
		addr, role := in.Address(), in.String()
		v := ctx.Get("role/" + role + "/" + addr.Hex())
		return contract.NewEncoder().Bool(len(v) > 0).Bytes(), nil

	case "setDeeds":
		// (nftAddr) — owner-only, once: datasets registered from now on
		// are deeded as ERC-721 tokens (§III-A: NFTs "model data and
		// workload code in PDS²"). The registry must hold the NFT
		// contract's minter role.
		nft := in.Address()
		if string(ctx.Get("owner")) != string(ctx.Caller[:]) {
			return nil, contract.Revertf("setDeeds: caller is not the registry owner")
		}
		if len(ctx.Get("deeds")) > 0 {
			return nil, contract.Revertf("setDeeds: already wired")
		}
		if !ctx.ContractExists(nft) {
			return nil, contract.Revertf("setDeeds: %s is not a contract", nft.Short())
		}
		ctx.Set("deeds", nft[:])
		return nil, nil

	case "deeds":
		var addr identity.Address
		copy(addr[:], ctx.Get("deeds"))
		return contract.NewEncoder().Address(addr).Bytes(), nil

	case "registerData":
		// (dataID digest, metaHash digest) — caller claims ownership of a
		// dataset by content hash. First registration wins, which is what
		// prevents relisting someone else's published data.
		dataID, metaHash := in.Digest(), in.Digest()
		if len(ctx.Get("data/"+dataID.Hex())) > 0 {
			return nil, contract.Revertf("registerData: %s already registered", dataID.Short())
		}
		ctx.Set("data/"+dataID.Hex(), ctx.Caller[:])
		ctx.Set("datameta/"+dataID.Hex(), metaHash[:])
		// Mint the ERC-721 deed to the registrant when the deeds
		// contract is wired.
		if deedsRaw := ctx.Get("deeds"); len(deedsRaw) == identity.AddressSize {
			var nft identity.Address
			copy(nft[:], deedsRaw)
			mintArgs := contract.NewEncoder().
				Address(ctx.Caller).Digest(dataID).Blob(metaHash[:]).Bytes()
			if _, err := ctx.CallContract(nft, "mint", mintArgs, 0); err != nil {
				return nil, contract.Revertf("registerData: deed mint: %v", err)
			}
		}
		ctx.Emit(EvDataRegistered, contract.NewEncoder().Digest(dataID).Address(ctx.Caller).Bytes())
		return nil, nil

	case "dataOwner":
		// (dataID) → address (zero when unregistered)
		var owner identity.Address
		copy(owner[:], ctx.Get("data/"+in.Digest().Hex()))
		return contract.NewEncoder().Address(owner).Bytes(), nil

	case "registerWorkload":
		// (workloadAddr) — called by the consumer after deploying a
		// workload contract; adds it to the public directory.
		addr := in.Address()
		if !ctx.ContractExists(addr) {
			return nil, contract.Revertf("registerWorkload: %s is not a contract", addr.Short())
		}
		seq := ctx.GetUint64("wlseq")
		ctx.Set(fmt.Sprintf("wl/%016d", seq), addr[:])
		ctx.SetUint64("wlseq", seq+1)
		// Reverse marker: only registered workload contracts may run
		// admission-layer policy enforcement (which consumes invocations).
		ctx.Set("wlreg/"+addr.Hex(), []byte{1})
		ctx.Emit(EvWorkloadRegistered, contract.NewEncoder().
			Address(addr).Digest(WorkloadIDFor(addr)).Bytes())
		return nil, nil

	case "workloadCount":
		return contract.NewEncoder().Uint64(ctx.GetUint64("wlseq")).Bytes(), nil

	case "workloadAt":
		// (index) → address
		idx := in.Uint64()
		raw := ctx.Get(fmt.Sprintf("wl/%016d", idx))
		if len(raw) != identity.AddressSize {
			return nil, contract.Revertf("workloadAt: index %d out of range", idx)
		}
		var addr identity.Address
		copy(addr[:], raw)
		return contract.NewEncoder().Address(addr).Bytes(), nil

	case "setPolicy":
		// (dataID digest, policy blob) — attach or replace the dataset's
		// usage-control policy. Only the registered owner may set it; the
		// mutation itself is a chain event so offline audit can replay
		// every decision against the policy in force at the time.
		dataID, blob := in.Digest(), in.Blob()
		if !callerOwns(ctx, dataID) {
			return nil, contract.Revertf("setPolicy: caller does not own dataset %s", dataID.Short())
		}
		pol, err := policy.Decode(blob)
		if err != nil {
			return nil, contract.Revertf("setPolicy: %v", err)
		}
		if err := pol.Validate(); err != nil {
			return nil, contract.Revertf("setPolicy: %v", err)
		}
		ctx.Set("policy/"+dataID.Hex(), blob)
		ctx.Emit(policy.EvPolicySet, policy.EncodePolicySet(dataID, ctx.Caller, blob))
		return nil, nil

	case "deployPolicy":
		// (dataID digest, artifact blob) — bind a compiled policy
		// program to the dataset. The artifact must decode as a
		// pds2/bytecode/v1 container AND re-verify against its embedded
		// source — deployed code is auditable by construction, and a
		// reference-evaluator replica can re-execute it from source.
		// Deployed code takes precedence over a declarative policy.
		dataID, blob := in.Digest(), in.Blob()
		if !callerOwns(ctx, dataID) {
			return nil, contract.Revertf("deployPolicy: caller does not own dataset %s", dataID.Short())
		}
		ctx.UseGas(contract.GasVMDeploy)
		mod, err := vm.Decode(blob)
		if err != nil {
			return nil, contract.Revertf("deployPolicy: %v", err)
		}
		if err := vm.VerifySource(mod); err != nil {
			return nil, contract.Revertf("deployPolicy: %v", err)
		}
		ctx.Set("polcode/"+dataID.Hex(), blob)
		ctx.Emit(EvPolicyCodeDeployed, policy.EncodePolicySet(dataID, ctx.Caller, blob))
		return nil, nil

	case "policyCodeOf":
		// (dataID) → deployed artifact blob (empty when none deployed)
		return contract.NewEncoder().Blob(ctx.Get("polcode/" + in.Digest().Hex())).Bytes(), nil

	case "policyOf":
		// (dataID) → encoded policy blob (empty when none attached)
		return contract.NewEncoder().Blob(ctx.Get("policy/" + in.Digest().Hex())).Bytes(), nil

	case "policyUses":
		// (dataID) → number of admissions that consumed the dataset
		return contract.NewEncoder().Uint64(ctx.GetUint64("poluse/" + in.Digest().Hex())).Bytes(), nil

	case "evalPolicy":
		// (dataID, layer, class, purpose, agg) → encoded DecisionRecord.
		// Pure view: no event, no consumption — the cheap pre-check
		// matchers and API clients use.
		dataID := in.Digest()
		layer, class, purpose, agg := decodePolicyQuery(ctx, in, method)
		rec, _, err := r.evalDatasetPolicy(ctx, dataID, layer, class, purpose, agg)
		if err != nil {
			return nil, err
		}
		return rec.Encode(), nil

	case "enforcePolicy":
		// (layer, class, purpose, agg, n, dataID…n) → encoded
		// []DecisionRecord. Evaluates every dataset's policy and logs one
		// PolicyDecision event per policy-bearing dataset. A denial does
		// NOT revert — reverting would discard the decision events — it
		// is returned to the caller, which must treat the batch as
		// failed. Denied batches log only the denials (the allows never
		// took effect); all-allow batches at the admission layer consume
		// one invocation per dataset, and only registered workload
		// contracts may run that layer.
		layer, class, purpose, agg := decodePolicyQuery(ctx, in, method)
		n := in.Uint64()
		if n == 0 || n > maxPolicyBatch {
			return nil, contract.Revertf("enforcePolicy: batch of %d datasets out of range", n)
		}
		if layer == policy.LayerAdmission && len(ctx.Get("wlreg/"+ctx.Caller.Hex())) == 0 {
			return nil, contract.Revertf("enforcePolicy: admission layer is reserved for registered workload contracts")
		}
		recs := make([]policy.DecisionRecord, 0, n)
		hasPol := make([]bool, 0, n)
		seen := make(map[crypto.Digest]bool, n)
		for i := uint64(0); i < n; i++ {
			dataID := in.Digest()
			if seen[dataID] {
				return nil, contract.Revertf("enforcePolicy: duplicate dataset %s in batch", dataID.Short())
			}
			seen[dataID] = true
			rec, bound, err := r.evalDatasetPolicy(ctx, dataID, layer, class, purpose, agg)
			if err != nil {
				return nil, err
			}
			recs = append(recs, rec)
			hasPol = append(hasPol, bound)
		}
		denied := policy.FirstDenial(recs) != nil
		for i := range recs {
			if !hasPol[i] {
				continue // no policy attached: nothing to log or consume
			}
			if denied && recs[i].Allowed() {
				continue // batch failed as a unit; these allows never happened
			}
			ctx.Emit(policy.EvPolicyDecision, recs[i].Encode())
			if !denied && layer == policy.LayerAdmission {
				ctx.SetUint64("poluse/"+recs[i].DataID.Hex(), recs[i].Invocations+1)
			}
		}
		return policy.EncodeDecisionRecords(recs), nil

	default:
		return nil, fmt.Errorf("%w: registry.%s", contract.ErrUnknownMethod, method)
	}
}

// callerOwns reports whether the caller registered the dataset.
func callerOwns(ctx *contract.Context, dataID crypto.Digest) bool {
	owner := ctx.Get("data/" + dataID.Hex())
	return len(owner) == identity.AddressSize && string(owner) == string(ctx.Caller[:])
}

// decodePolicyQuery decodes the (layer, class, purpose, agg) tail shared
// by evalPolicy and enforcePolicy; an unknown layer name halts the
// method's frame.
func decodePolicyQuery(ctx *contract.Context, in *contract.Decoder, method string) (layer, class, purpose string, agg uint64) {
	switch layer = in.String(); layer {
	case policy.LayerMatch, policy.LayerAdmission, policy.LayerEnclave:
	default:
		ctx.Halt(contract.Revertf("%s: unknown enforcement layer %q", method, layer))
	}
	return layer, in.String(), in.String(), in.Uint64()
}

// evalDatasetPolicy runs one usage-control evaluation against the
// dataset's stored policy and consumption counter. Deployed policy
// bytecode (polcode/) takes precedence over a declarative policy
// (policy/); both produce the same DecisionRecord shape, so callers and
// audit tooling cannot tell the engines apart. The second return
// reports whether the dataset has any policy attached (policy-less
// datasets are allowed without logging).
func (r RegistryContract) evalDatasetPolicy(ctx *contract.Context, dataID crypto.Digest,
	layer, class, purpose string, agg uint64) (policy.DecisionRecord, bool, error) {

	ctx.UseGas(GasPolicyEval)
	uses := ctx.GetUint64("poluse/" + dataID.Hex())
	rec := policy.DecisionRecord{
		DataID: dataID, Subject: ctx.Caller,
		Layer: layer, Class: class, Purpose: purpose,
		Aggregation: agg, Height: ctx.Height, Invocations: uses,
	}

	if code := ctx.Get("polcode/" + dataID.Hex()); len(code) > 0 {
		verdict, err := r.runPolicyProgram(ctx, dataID, code, semantic.Request{
			Layer: layer, Class: class, Purpose: purpose,
			Aggregation: agg, Height: ctx.Height, Invocations: uses,
		})
		if err != nil {
			return policy.DecisionRecord{}, false, err
		}
		rec.Code, rec.Clause = verdict.Code, verdict.Clause
		return rec, true, nil
	}

	raw := ctx.Get("policy/" + dataID.Hex())
	var pol *policy.Policy
	if len(raw) > 0 {
		var err error
		if pol, err = policy.Decode(raw); err != nil {
			return policy.DecisionRecord{}, false, contract.Revertf("policy for %s is corrupt: %v", dataID.Short(), err)
		}
	}
	dec := policy.Evaluate(pol, policy.Request{
		Layer: layer, Class: class, Purpose: purpose,
		Aggregation: agg, Height: ctx.Height, Invocations: uses,
	})
	rec.Code, rec.Clause = dec.Code, dec.Clause
	return rec, len(raw) > 0, nil
}

// runPolicyProgram executes a deployed policy artifact on the bytecode
// VM, or on the executor NewRuntimeWithExec substituted. Program state
// lives under polstate/<dataID>/. Out-of-gas propagates unwrapped so
// the journal unwinds the transaction; any other program failure is a
// deterministic revert.
func (r RegistryContract) runPolicyProgram(ctx *contract.Context, dataID crypto.Digest,
	artifact []byte, req semantic.Request) (semantic.Verdict, error) {

	mod, err := vm.Decode(artifact)
	if err != nil {
		return semantic.Verdict{}, contract.Revertf("policy code for %s is corrupt: %v", dataID.Short(), err)
	}
	exec := r.exec
	if exec == nil {
		exec = vm.Execute
	}
	verdict, err := exec(mod, vm.NewContextHost(ctx, "polstate/"+dataID.Hex()+"/", req))
	if err != nil {
		if errors.Is(err, contract.ErrOutOfGas) {
			return semantic.Verdict{}, err
		}
		return semantic.Verdict{}, contract.Revertf("policy program for %s: %v", dataID.Short(), err)
	}
	return verdict, nil
}

// Client-side helpers.

// RegisterActorData builds call data for registerActor.
func RegisterActorData(role identity.Role) []byte {
	return contract.CallData("registerActor", contract.NewEncoder().String(string(role)).Bytes())
}

// RegisterDataData builds call data for registerData.
func RegisterDataData(dataID, metaHash crypto.Digest) []byte {
	return contract.CallData("registerData", contract.NewEncoder().Digest(dataID).Digest(metaHash).Bytes())
}

// RegisterWorkloadData builds call data for registerWorkload.
func RegisterWorkloadData(addr identity.Address) []byte {
	return contract.CallData("registerWorkload", contract.NewEncoder().Address(addr).Bytes())
}

// SetPolicyData builds call data for setPolicy.
func SetPolicyData(dataID crypto.Digest, pol *policy.Policy) []byte {
	return contract.CallData("setPolicy", contract.NewEncoder().
		Digest(dataID).Blob(pol.Encode()).Bytes())
}

// DeployPolicyData builds call data for deployPolicy from an encoded
// bytecode artifact.
func DeployPolicyData(dataID crypto.Digest, artifact []byte) []byte {
	return contract.CallData("deployPolicy", contract.NewEncoder().
		Digest(dataID).Blob(artifact).Bytes())
}

// enforcePolicyArgs builds the raw argument encoding for enforcePolicy
// (shared by the client-side CallData wrapper and the workload
// contract's cross-contract admission call).
func enforcePolicyArgs(layer, class, purpose string, agg uint64, ids ...crypto.Digest) []byte {
	e := contract.NewEncoder().String(layer).String(class).String(purpose).Uint64(agg).
		Uint64(uint64(len(ids)))
	for _, id := range ids {
		e.Digest(id)
	}
	return e.Bytes()
}

// EnforcePolicyData builds call data for enforcePolicy over a batch of
// datasets.
func EnforcePolicyData(layer, class, purpose string, agg uint64, ids ...crypto.Digest) []byte {
	return contract.CallData("enforcePolicy", enforcePolicyArgs(layer, class, purpose, agg, ids...))
}
