package market

import (
	"fmt"

	"pds2/internal/contract"
	"pds2/internal/crypto"
	"pds2/internal/identity"
	"pds2/internal/ledger"
	"pds2/internal/policy"
	"pds2/internal/telemetry"
)

// PolicyDenialError is returned when a usage-control policy denies an
// operation at any enforcement layer. The embedded record carries the
// stable reason code, violated clause and layer; the same record was
// emitted on-chain as a PolicyDecision event.
type PolicyDenialError struct {
	Record policy.DecisionRecord
}

// Error implements error.
func (e *PolicyDenialError) Error() string {
	return fmt.Sprintf("market: policy denied %s of dataset %s at %s layer: %s (clause %s)",
		e.Record.Class, e.Record.DataID.Short(), e.Record.Layer, e.Record.Code, e.Record.Clause)
}

// denialFromRecords converts an enforcePolicy result into a typed error
// when the batch contains a denial.
func denialFromRecords(recs []policy.DecisionRecord) error {
	if d := policy.FirstDenial(recs); d != nil {
		mPolicyDenied.Inc()
		return &PolicyDenialError{Record: *d}
	}
	return nil
}

// enforcePolicies sends an on-chain enforcePolicy transaction from the
// given identity, decoding the resulting decision batch. Every decision
// for a policy-bearing dataset lands in the chain event log.
func (m *Market) enforcePolicies(from *identity.Identity, layer, class, purpose string,
	agg uint64, ids []crypto.Digest) ([]policy.DecisionRecord, error) {

	rcpt, err := MustSucceed(m.SendAndSeal(from, m.Registry, 0,
		EnforcePolicyData(layer, class, purpose, agg, ids...)))
	if err != nil {
		return nil, fmt.Errorf("market: policy enforcement: %w", err)
	}
	recs, err := policy.DecodeDecisionRecords(rcpt.Return)
	if err != nil {
		return nil, fmt.Errorf("market: policy enforcement: %w", err)
	}
	return recs, nil
}

// enforce is the market side of usage control at the match and enclave
// layers. When any of the datasets carries a policy it sends one
// enforcePolicy transaction from the given identity, so every decision
// becomes a PolicyDecision chain event, and returns the first denial as
// a *PolicyDenialError. Policy-free batches skip the transaction.
func (m *Market) enforce(from *identity.Identity, layer string, workload identity.Address,
	spec *Spec, agg uint64, ids []crypto.Digest) error {

	bound, err := m.anyPolicyBound(ids)
	if err != nil || !bound {
		return err
	}
	recs, err := m.enforcePolicies(from, layer, spec.ComputationClass(), spec.Purpose, agg, ids)
	if err != nil {
		return err
	}
	if err := denialFromRecords(recs); err != nil {
		logMarket.Info(layer+"-layer policy denial",
			telemetry.Str("workload", workload.Hex()),
			telemetry.Str("actor", from.Address().Hex()), telemetry.Err(err))
		return err
	}
	return nil
}

// PolicyOf reads a dataset's usage-control policy from the registry;
// nil means no policy is attached (fully permissive).
func (m *Market) PolicyOf(dataID crypto.Digest) (*policy.Policy, error) {
	raw, err := m.View(identity.ZeroAddress, m.Registry, "policyOf",
		contract.NewEncoder().Digest(dataID).Bytes())
	if err != nil {
		return nil, err
	}
	d := contract.NewDecoder(raw)
	blob := d.Blob()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if len(blob) == 0 {
		return nil, nil
	}
	return policy.Decode(blob)
}

// PolicyUses reads how many admissions have consumed the dataset.
func (m *Market) PolicyUses(dataID crypto.Digest) (uint64, error) {
	raw, err := m.View(identity.ZeroAddress, m.Registry, "policyUses",
		contract.NewEncoder().Digest(dataID).Bytes())
	if err != nil {
		return 0, err
	}
	d := contract.NewDecoder(raw)
	return d.Uint64(), d.Err()
}

// EvalPolicy runs the registry's pure policy evaluation view: no event,
// no consumption.
func (m *Market) EvalPolicy(dataID crypto.Digest, layer, class, purpose string, agg uint64) (policy.DecisionRecord, error) {
	raw, err := m.View(identity.ZeroAddress, m.Registry, "evalPolicy",
		contract.NewEncoder().Digest(dataID).
			String(layer).String(class).String(purpose).Uint64(agg).Bytes())
	if err != nil {
		return policy.DecisionRecord{}, err
	}
	rec, err := policy.DecodeDecisionRecord(raw)
	if err != nil {
		return policy.DecisionRecord{}, err
	}
	return *rec, nil
}

// PolicyCodeOf reads a dataset's deployed policy bytecode artifact;
// empty means no program is deployed.
func (m *Market) PolicyCodeOf(dataID crypto.Digest) ([]byte, error) {
	raw, err := m.View(identity.ZeroAddress, m.Registry, "policyCodeOf",
		contract.NewEncoder().Digest(dataID).Bytes())
	if err != nil {
		return nil, err
	}
	d := contract.NewDecoder(raw)
	return d.Blob(), d.Err()
}

// anyPolicyBound reports whether any of the datasets has a policy —
// declarative or deployed bytecode — attached. The fast pre-check that
// lets policy-free flows skip the on-chain enforcement transaction
// entirely.
func (m *Market) anyPolicyBound(ids []crypto.Digest) (bool, error) {
	for _, id := range ids {
		pol, err := m.PolicyOf(id)
		if err != nil {
			return false, err
		}
		if pol != nil {
			return true, nil
		}
		code, err := m.PolicyCodeOf(id)
		if err != nil {
			return false, err
		}
		if len(code) > 0 {
			return true, nil
		}
	}
	return false, nil
}

// DatasetInfo is one registry dataset entry with its usage-control
// state, as surfaced by the /v1/datasets API.
type DatasetInfo struct {
	ID       crypto.Digest
	Owner    identity.Address
	MetaHash crypto.Digest
	Policy   *policy.Policy // nil when none attached
	CodeSize int            // size of the deployed policy bytecode artifact (0 = none)
	Uses     uint64
}

// DatasetIDs lists every registered dataset ID in sorted (hex) order —
// the stable order the paginated API walks.
func (m *Market) DatasetIDs() ([]crypto.Digest, error) {
	keys := m.Chain.State().StorageKeys(m.Registry, "data/")
	out := make([]crypto.Digest, 0, len(keys))
	for _, k := range keys {
		id, err := crypto.DigestFromHex(k[len("data/"):])
		if err != nil {
			return nil, fmt.Errorf("market: corrupt dataset key %q: %w", k, err)
		}
		out = append(out, id)
	}
	return out, nil
}

// DatasetInfoOf assembles a dataset's registry entry; the boolean is
// false when the dataset is not registered.
func (m *Market) DatasetInfoOf(dataID crypto.Digest) (DatasetInfo, bool, error) {
	st := m.Chain.State()
	ownerRaw := st.GetStorage(m.Registry, "data/"+dataID.Hex())
	if len(ownerRaw) != identity.AddressSize {
		return DatasetInfo{}, false, nil
	}
	info := DatasetInfo{ID: dataID}
	copy(info.Owner[:], ownerRaw)
	copy(info.MetaHash[:], st.GetStorage(m.Registry, "datameta/"+dataID.Hex()))
	var err error
	if info.Policy, err = m.PolicyOf(dataID); err != nil {
		return DatasetInfo{}, false, err
	}
	info.CodeSize = len(st.GetStorage(m.Registry, "polcode/"+dataID.Hex()))
	if info.Uses, err = m.PolicyUses(dataID); err != nil {
		return DatasetInfo{}, false, err
	}
	return info, true, nil
}

// VerifyPolicySettlements checks the "no settled workload violates its
// dataset's policy" invariant against a chain's flat event log: every
// dataset contributed to a workload that later finalized must — if a
// policy was in force at contribution time — have a logged, allowed
// admission-layer decision naming that workload, and that decision must
// precede the contribution. Returns human-readable violations.
func VerifyPolicySettlements(events []ledger.Event) []string {
	var violations []string
	hasPolicy := make(map[crypto.Digest]bool)
	// admitted[workload][dataID] — an allowed admission decision was
	// logged for this (workload, dataset) pair.
	admitted := make(map[identity.Address]map[crypto.Digest]bool)
	type contribution struct {
		dataID  crypto.Digest
		guarded bool // policy was in force when contributed
		allowed bool // an admission allow preceded the contribution
	}
	contribs := make(map[identity.Address][]contribution)

	for i, ev := range events {
		switch ev.Topic {
		case policy.EvPolicySet, EvPolicyCodeDeployed:
			// A deployed policy program guards the dataset exactly like a
			// declarative policy; both event payloads share one layout.
			dataID, _, _, err := policy.DecodePolicySet(ev.Data)
			if err != nil {
				violations = append(violations, fmt.Sprintf("event %d: %v", i, err))
				continue
			}
			hasPolicy[dataID] = true

		case policy.EvPolicyDecision:
			rec, err := policy.DecodeDecisionRecord(ev.Data)
			if err != nil {
				violations = append(violations, fmt.Sprintf("event %d: %v", i, err))
				continue
			}
			if rec.Layer == policy.LayerAdmission && rec.Allowed() {
				if admitted[rec.Subject] == nil {
					admitted[rec.Subject] = make(map[crypto.Digest]bool)
				}
				admitted[rec.Subject][rec.DataID] = true
			}

		case EvDataContributed:
			// Emitted by the workload contract itself, so ev.Contract is
			// the workload address — the admission decision's Subject.
			d := contract.NewDecoder(ev.Data)
			dataID := d.Digest()
			if err := d.Err(); err != nil {
				violations = append(violations, fmt.Sprintf("event %d: %v", i, err))
				continue
			}
			contribs[ev.Contract] = append(contribs[ev.Contract], contribution{
				dataID:  dataID,
				guarded: hasPolicy[dataID],
				allowed: admitted[ev.Contract][dataID],
			})

		case EvWorkloadFinalized:
			for _, c := range contribs[ev.Contract] {
				if c.guarded && !c.allowed {
					violations = append(violations, fmt.Sprintf(
						"workload %s settled with dataset %s but no allowed admission decision precedes its contribution",
						ev.Contract.Short(), c.dataID.Short()))
				}
			}
		}
	}
	return violations
}
