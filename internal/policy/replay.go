package policy

import (
	"fmt"

	"pds2/internal/contract"
	"pds2/internal/crypto"
	"pds2/internal/identity"
	"pds2/internal/ledger"
)

// EncodePolicySet builds the EvPolicySet event payload.
func EncodePolicySet(dataID crypto.Digest, owner identity.Address, pol []byte) []byte {
	return contract.NewEncoder().Digest(dataID).Address(owner).Blob(pol).Bytes()
}

// DecodePolicySet inverts EncodePolicySet.
func DecodePolicySet(b []byte) (dataID crypto.Digest, owner identity.Address, pol []byte, err error) {
	d := contract.NewDecoder(b)
	dataID, owner, pol = d.Digest(), d.Address(), d.Blob()
	if err = d.Done(); err != nil {
		return dataID, owner, nil, fmt.Errorf("policy: decode set event: %w", err)
	}
	return dataID, owner, pol, nil
}

// ReplayReport summarizes an offline re-derivation of a chain's policy
// decision log.
type ReplayReport struct {
	PoliciesSet int // PolicySet events seen
	Programs    int // PolicyCodeDeployed events seen
	Decisions   int // PolicyDecision events seen
	Allows      int
	Denies      int

	// Mismatches are decisions whose logged reason code differs from
	// re-running Evaluate on the recorded request against the policy in
	// force, or whose recorded invocation count drifts from the count
	// derivable from prior admission allows. Any entry means the chain's
	// enforcement was inconsistent.
	Mismatches []string

	// UnexplainedDenies are admission- or enclave-layer denials that
	// were neither determinable at the dataset's most recent match-time
	// decision (same code under the match-time policy) nor explained by
	// a policy mutation in between. Any entry means a later layer
	// invented a denial the pipeline could not have predicted.
	UnexplainedDenies []string
}

// Err folds the report into a single error, nil when clean.
func (r *ReplayReport) Err() error {
	if len(r.Mismatches) == 0 && len(r.UnexplainedDenies) == 0 {
		return nil
	}
	return fmt.Errorf("policy replay: %d mismatches, %d unexplained late denies (first: %s)",
		len(r.Mismatches), len(r.UnexplainedDenies), firstOf(r.Mismatches, r.UnexplainedDenies))
}

func firstOf(lists ...[]string) string {
	for _, l := range lists {
		if len(l) > 0 {
			return l[0]
		}
	}
	return ""
}

// policyVersion is one entry in a dataset's policy history during replay.
type policyVersion struct {
	index int // event-log index of the PolicySet
	pol   *Policy
}

// ReplayDecisions re-derives a chain's policy decision log from its flat
// event stream (block order). It maintains each dataset's policy history
// from PolicySet events and an invocation counter from admission-layer
// allows, re-evaluates every PolicyDecision record, and cross-checks two
// invariants:
//
//  1. consistency — each logged reason code equals Evaluate(policy in
//     force, recorded request), and the recorded invocation count equals
//     the count derivable from prior admission allows;
//  2. late-deny precedence — every deny at admission or enclave layer
//     was either already checkable at the dataset's most recent
//     match-time decision (the match-time policy yields the same code
//     for the denied request) or a policy mutation landed in between.
func ReplayDecisions(events []ledger.Event) ReplayReport {
	var rep ReplayReport
	history := make(map[crypto.Digest][]policyVersion)
	uses := make(map[crypto.Digest]uint64)
	lastMatch := make(map[crypto.Digest]int) // dataID → policy-version count at last match decision
	// Datasets governed by deployed policy bytecode. Their decision
	// codes come from program execution — possibly over program state no
	// event stream carries — so the declarative re-derivation below
	// cannot apply; re-deriving those codes takes a full chain replay
	// (the proptest "vm" rows run one on the reference evaluator). The
	// engine-independent invariants (counter derivability, admission
	// consumption) still hold and stay checked.
	programmed := make(map[crypto.Digest]bool)

	for i, ev := range events {
		switch ev.Topic {
		case EvPolicyCode:
			dataID, _, _, err := DecodePolicySet(ev.Data)
			if err != nil {
				rep.Mismatches = append(rep.Mismatches, fmt.Sprintf("event %d: %v", i, err))
				continue
			}
			programmed[dataID] = true
			rep.Programs++

		case EvPolicySet:
			dataID, _, blob, err := DecodePolicySet(ev.Data)
			if err != nil {
				rep.Mismatches = append(rep.Mismatches, fmt.Sprintf("event %d: %v", i, err))
				continue
			}
			pol, err := Decode(blob)
			if err != nil {
				rep.Mismatches = append(rep.Mismatches, fmt.Sprintf("event %d: %v", i, err))
				continue
			}
			history[dataID] = append(history[dataID], policyVersion{index: i, pol: pol})
			rep.PoliciesSet++

		case EvPolicyDecision:
			rec, err := DecodeDecisionRecord(ev.Data)
			if err != nil {
				rep.Mismatches = append(rep.Mismatches, fmt.Sprintf("event %d: %v", i, err))
				continue
			}
			rep.Decisions++
			versions := history[rec.DataID]
			var current *Policy
			if len(versions) > 0 {
				current = versions[len(versions)-1].pol
			}
			// Invariant 1a: recorded invocation count matches the
			// derivable one.
			if rec.Invocations != uses[rec.DataID] {
				rep.Mismatches = append(rep.Mismatches, fmt.Sprintf(
					"event %d: %s %s decision recorded %d invocations, replay derives %d",
					i, rec.DataID.Short(), rec.Layer, rec.Invocations, uses[rec.DataID]))
			}
			// Invariant 1b: the logged code re-derives from the policy in
			// force. Evaluate with the derived count so counter drift
			// cannot mask a code mismatch. Program-governed datasets are
			// exempt: their codes re-derive only via chain replay.
			req := rec.Request()
			req.Invocations = uses[rec.DataID]
			if got := Evaluate(current, req); !programmed[rec.DataID] && got.Code != rec.Code {
				rep.Mismatches = append(rep.Mismatches, fmt.Sprintf(
					"event %d: %s %s decision logged %q, replay evaluates %q",
					i, rec.DataID.Short(), rec.Layer, rec.Code, got.Code))
			}
			if rec.Allowed() {
				rep.Allows++
				if rec.Layer == LayerAdmission {
					uses[rec.DataID]++ // each admission allow is one consumption
				}
			} else {
				rep.Denies++
				// Invariant 2: late denies must trace back to match.
				// Program verdicts may depend on program state, so the
				// match-time re-evaluation only applies to declarative
				// datasets.
				if rec.Layer != LayerMatch && !programmed[rec.DataID] {
					if vAtMatch, matched := lastMatch[rec.DataID]; matched {
						mutated := len(versions) > vAtMatch
						if !mutated {
							var matchPol *Policy
							if vAtMatch > 0 {
								matchPol = versions[vAtMatch-1].pol
							}
							if got := Evaluate(matchPol, req); got.Code != rec.Code {
								rep.UnexplainedDenies = append(rep.UnexplainedDenies, fmt.Sprintf(
									"event %d: %s deny %q at %s not checkable at match time (match-policy yields %q) and no mutation in between",
									i, rec.DataID.Short(), rec.Code, rec.Layer, got.Code))
							}
						}
					}
				}
			}
			if rec.Layer == LayerMatch {
				lastMatch[rec.DataID] = len(versions)
			}
		}
	}
	return rep
}
