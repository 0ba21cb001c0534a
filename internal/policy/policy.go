// Package policy implements PDS²'s per-dataset usage-control policies.
//
// A Policy is a small declarative contract a data owner attaches to a
// dataset registration: which computation classes may run, the minimum
// aggregation set size any computation must reach, an expiry height, the
// purposes the owner consents to, and a consumption cap. Policies are
// machine-checkable ("YOU SHALL NOT COMPUTE"-style): evaluation is a pure
// function of the policy and a Request describing the attempted
// computation, so the exact same check runs at all three enforcement
// layers — match time in the market, admission time in the workload
// contract, and inside the simulated TEE before the enclave touches
// plaintext — and can be replayed offline from the chain's decision log.
//
// Every evaluation yields a Decision with a stable machine-readable
// reason code; on-chain, each decision is emitted as a PolicyDecision
// event so pds2-audit (and the proptest auditor) can re-derive the whole
// log and verify no computation ever slipped past its dataset's policy.
package policy

import (
	"fmt"

	"pds2/internal/contract"
	"pds2/internal/crypto"
	"pds2/internal/identity"
)

// Enforcement layers, in pipeline order. Each decision records the layer
// it was taken at; the audit replay checks that a deny at a later layer
// was already determinable at match time unless the policy was mutated
// in between.
const (
	LayerMatch     = "match"     // provider-side matching, before certs are issued
	LayerAdmission = "admission" // workload contract, before a registration commits
	LayerEnclave   = "enclave"   // inside the TEE host, before plaintext reaches the program
)

// Stable decision reason codes. These are wire format: they appear in
// chain events, API error envelopes and audit reports, and must never be
// renumbered or renamed.
const (
	CodeOK               = "ok"
	CodeExpired          = "policy_expired"
	CodeClassForbidden   = "class_forbidden"
	CodePurposeMismatch  = "purpose_mismatch"
	CodeAggregationFloor = "aggregation_floor"
	CodeExhausted        = "invocations_exhausted"
)

// Clause names identify which policy field produced a denial; they are
// surfaced in the API error envelope's details object.
const (
	ClauseClasses     = "allowed_classes"
	ClauseAggregation = "min_aggregation"
	ClauseExpiry      = "expiry_height"
	ClausePurposes    = "purposes"
	ClauseInvocations = "max_invocations"
)

// Limits keeping on-chain policies small.
const (
	maxListEntries = 64
	maxStringLen   = 128
)

// Policy is a dataset's usage-control contract. The zero value is the
// fully permissive policy (every clause disabled).
type Policy struct {
	// AllowedClasses whitelists computation classes ("train",
	// "aggregate", "stats", …). Empty means any class is permitted.
	AllowedClasses []string

	// MinAggregation is the smallest aggregation set (number of data
	// items in the computation batch) the owner consents to — the
	// k-anonymity-style floor. Zero disables the clause.
	MinAggregation uint64

	// ExpiryHeight is the last ledger height at which the policy grants
	// access; evaluations at greater heights are denied. Zero means the
	// policy never expires.
	ExpiryHeight uint64

	// Purposes whitelists consented purpose strings ("research", …).
	// Empty means any purpose, including none.
	Purposes []string

	// MaxInvocations caps how many workload admissions may consume the
	// dataset. Zero means unlimited.
	MaxInvocations uint64
}

// IsZero reports whether every clause is disabled.
func (p *Policy) IsZero() bool {
	return len(p.AllowedClasses) == 0 && p.MinAggregation == 0 &&
		p.ExpiryHeight == 0 && len(p.Purposes) == 0 && p.MaxInvocations == 0
}

// Validate checks structural sanity of a policy before it is accepted
// on-chain.
func (p *Policy) Validate() error {
	if len(p.AllowedClasses) > maxListEntries || len(p.Purposes) > maxListEntries {
		return fmt.Errorf("policy: list clause exceeds %d entries", maxListEntries)
	}
	for _, c := range p.AllowedClasses {
		if c == "" || len(c) > maxStringLen {
			return fmt.Errorf("policy: invalid computation class %q", c)
		}
	}
	for _, s := range p.Purposes {
		if s == "" || len(s) > maxStringLen {
			return fmt.Errorf("policy: invalid purpose %q", s)
		}
	}
	return nil
}

// Encode serializes the policy with the contract ABI.
func (p *Policy) Encode() []byte {
	e := contract.NewEncoder().Uint64(uint64(len(p.AllowedClasses)))
	for _, c := range p.AllowedClasses {
		e.String(c)
	}
	e.Uint64(p.MinAggregation).Uint64(p.ExpiryHeight)
	e.Uint64(uint64(len(p.Purposes)))
	for _, s := range p.Purposes {
		e.String(s)
	}
	return e.Uint64(p.MaxInvocations).Bytes()
}

// Decode inverts Encode.
func Decode(b []byte) (*Policy, error) {
	d := contract.NewDecoder(b)
	var p Policy
	var err error
	if p.AllowedClasses, err = decodeList(d, "classes"); err != nil {
		return nil, err
	}
	p.MinAggregation, p.ExpiryHeight = d.Uint64(), d.Uint64()
	if p.Purposes, err = decodeList(d, "purposes"); err != nil {
		return nil, err
	}
	p.MaxInvocations = d.Uint64()
	if err := d.Done(); err != nil {
		return nil, fmt.Errorf("policy: decode: %w", err)
	}
	return &p, nil
}

// decodeList reads a counted list of strings, refusing more than
// maxListEntries of them.
func decodeList(d *contract.Decoder, what string) ([]string, error) {
	n := d.Uint64()
	if n > maxListEntries {
		return nil, fmt.Errorf("policy: decode: %d %s exceed limit", n, what)
	}
	var out []string
	for i := uint64(0); i < n; i++ {
		out = append(out, d.String())
	}
	return out, nil
}

// Request describes one attempted use of a dataset, as seen by an
// enforcement layer. The same request shape is evaluated at every layer;
// only the observables differ (match knows the spec's guaranteed floor,
// admission knows the contributed item count, the enclave knows the
// actual batch it is about to compute on).
type Request struct {
	Layer       string // LayerMatch, LayerAdmission or LayerEnclave
	Class       string // computation class of the workload ("train", …)
	Purpose     string // declared purpose of the workload
	Aggregation uint64 // aggregation set size observable at this layer
	Height      uint64 // ledger height at evaluation time
	Invocations uint64 // dataset consumptions committed so far
}

// Decision is the outcome of evaluating a policy against a request.
type Decision struct {
	Allowed bool
	Code    string // stable reason code (CodeOK when allowed)
	Clause  string // policy clause that produced a denial ("" when allowed)
	Layer   string // enforcement layer the decision was taken at
	Detail  string // human-readable explanation
}

// Evaluate checks req against p. It is pure and deterministic; clauses
// are checked in a fixed order (expiry, class, purpose, aggregation,
// invocations) so the reason code for a multiply-violating request is
// stable. A nil policy — a dataset with no policy attached — allows
// everything.
func Evaluate(p *Policy, req Request) Decision {
	allow := Decision{Allowed: true, Code: CodeOK, Layer: req.Layer}
	if p == nil || p.IsZero() {
		return allow
	}
	if p.ExpiryHeight > 0 && req.Height > p.ExpiryHeight {
		return deny(req, CodeExpired, ClauseExpiry,
			fmt.Sprintf("policy expired at height %d (now %d)", p.ExpiryHeight, req.Height))
	}
	if len(p.AllowedClasses) > 0 && !contains(p.AllowedClasses, req.Class) {
		return deny(req, CodeClassForbidden, ClauseClasses,
			fmt.Sprintf("computation class %q not in allowed set %v", req.Class, p.AllowedClasses))
	}
	if len(p.Purposes) > 0 && !contains(p.Purposes, req.Purpose) {
		return deny(req, CodePurposeMismatch, ClausePurposes,
			fmt.Sprintf("purpose %q not consented (allowed %v)", req.Purpose, p.Purposes))
	}
	if p.MinAggregation > 0 && req.Aggregation < p.MinAggregation {
		return deny(req, CodeAggregationFloor, ClauseAggregation,
			fmt.Sprintf("aggregation set %d below floor %d", req.Aggregation, p.MinAggregation))
	}
	if p.MaxInvocations > 0 && req.Invocations >= p.MaxInvocations {
		return deny(req, CodeExhausted, ClauseInvocations,
			fmt.Sprintf("dataset consumed %d of %d permitted invocations", req.Invocations, p.MaxInvocations))
	}
	return allow
}

func deny(req Request, code, clause, detail string) Decision {
	return Decision{Code: code, Clause: clause, Layer: req.Layer, Detail: detail}
}

func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

// Chain event topics. The market's registry contract emits these; the
// constants live here so offline verifiers need not import the market.
const (
	// EvPolicySet carries (dataID digest, owner address, policy blob):
	// a policy was attached to or replaced on a dataset.
	EvPolicySet = "PolicySet"

	// EvPolicyDecision carries an encoded DecisionRecord: one
	// enforcement-layer allow/deny decision.
	EvPolicyDecision = "PolicyDecision"

	// EvPolicyCode carries (dataID digest, owner address, artifact
	// blob): a compiled policy program was bound to a dataset,
	// superseding any declarative policy. The payload layout matches
	// EvPolicySet so both decode with DecodePolicySet.
	EvPolicyCode = "PolicyCodeDeployed"
)

// DecisionRecord is the on-chain form of a decision: the request
// observables plus the outcome, everything an offline verifier needs to
// re-run Evaluate and confirm the logged code.
type DecisionRecord struct {
	DataID      crypto.Digest    // dataset the decision is about
	Subject     identity.Address // who asked: provider at match, workload contract at admission, executor at enclave
	Layer       string
	Class       string
	Purpose     string
	Aggregation uint64
	Height      uint64 // evaluation height (expiry clause input)
	Invocations uint64 // consumption count the evaluation saw
	Code        string // resulting reason code
	Clause      string // violated clause ("" when allowed)
}

// Allowed reports whether the recorded decision was an allow.
func (r *DecisionRecord) Allowed() bool { return r.Code == CodeOK }

// Request reconstructs the evaluation input the record captured.
func (r *DecisionRecord) Request() Request {
	return Request{Layer: r.Layer, Class: r.Class, Purpose: r.Purpose,
		Aggregation: r.Aggregation, Height: r.Height, Invocations: r.Invocations}
}

// Encode serializes the record with the contract ABI.
func (r *DecisionRecord) Encode() []byte {
	return contract.NewEncoder().
		Digest(r.DataID).
		Address(r.Subject).
		String(r.Layer).
		String(r.Class).
		String(r.Purpose).
		Uint64(r.Aggregation).
		Uint64(r.Height).
		Uint64(r.Invocations).
		String(r.Code).
		String(r.Clause).
		Bytes()
}

// DecodeDecisionRecord inverts DecisionRecord.Encode.
func DecodeDecisionRecord(b []byte) (*DecisionRecord, error) {
	d := contract.NewDecoder(b)
	r := DecisionRecord{
		DataID: d.Digest(), Subject: d.Address(),
		Layer: d.String(), Class: d.String(), Purpose: d.String(),
		Aggregation: d.Uint64(), Height: d.Uint64(), Invocations: d.Uint64(),
		Code: d.String(), Clause: d.String(),
	}
	if err := d.Done(); err != nil {
		return nil, fmt.Errorf("policy: decode record: %w", err)
	}
	return &r, nil
}

// EncodeDecisionRecords serializes a batch of records (the return value
// of the registry's enforcePolicy method).
func EncodeDecisionRecords(recs []DecisionRecord) []byte {
	e := contract.NewEncoder().Uint64(uint64(len(recs)))
	for i := range recs {
		e.Blob(recs[i].Encode())
	}
	return e.Bytes()
}

// DecodeDecisionRecords inverts EncodeDecisionRecords.
func DecodeDecisionRecords(b []byte) ([]DecisionRecord, error) {
	d := contract.NewDecoder(b)
	n := d.Uint64()
	if n > 4096 {
		return nil, fmt.Errorf("policy: decode records: %d entries exceed limit", n)
	}
	out := make([]DecisionRecord, 0, n)
	for i := uint64(0); i < n; i++ {
		blob := d.Blob()
		if d.Err() != nil {
			break
		}
		r, err := DecodeDecisionRecord(blob)
		if err != nil {
			return nil, err
		}
		out = append(out, *r)
	}
	if err := d.Done(); err != nil {
		return nil, fmt.Errorf("policy: decode records: %w", err)
	}
	return out, nil
}

// FirstDenial returns the first denied record in a batch, or nil when
// every record is an allow.
func FirstDenial(recs []DecisionRecord) *DecisionRecord {
	for i := range recs {
		if !recs[i].Allowed() {
			return &recs[i]
		}
	}
	return nil
}
