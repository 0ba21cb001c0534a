// Dataset and usage-control policy endpoints: the /v1/datasets registry
// surface and the /v1/policies decision log. Mutations (dataset
// registration, policy attachment) are non-custodial like every other
// write on this API: the caller signs the transaction with its own key
// and the node only validates shape and routes it into the mempool —
// ownership is enforced on-chain by the registry contract.
package api

import (
	"fmt"
	"net/http"
	"strconv"

	"pds2/internal/contract"
	"pds2/internal/crypto"
	"pds2/internal/identity"
	"pds2/internal/ledger"
	"pds2/internal/market"
	"pds2/internal/policy"
)

// PolicyBody is the JSON shape of a usage-control policy, used in
// dataset views. Absent clauses are unconstrained.
type PolicyBody struct {
	AllowedClasses []string `json:"allowed_classes,omitempty"`
	MinAggregation uint64   `json:"min_aggregation,omitempty"`
	ExpiryHeight   uint64   `json:"expiry_height,omitempty"`
	Purposes       []string `json:"purposes,omitempty"`
	MaxInvocations uint64   `json:"max_invocations,omitempty"`
}

func policyBody(p *policy.Policy) *PolicyBody {
	if p == nil {
		return nil
	}
	return &PolicyBody{
		AllowedClasses: p.AllowedClasses,
		MinAggregation: p.MinAggregation,
		ExpiryHeight:   p.ExpiryHeight,
		Purposes:       p.Purposes,
		MaxInvocations: p.MaxInvocations,
	}
}

// DatasetSummary is one entry of GET /v1/datasets.
type DatasetSummary struct {
	ID        crypto.Digest    `json:"id"`
	Owner     identity.Address `json:"owner"`
	HasPolicy bool             `json:"has_policy"`
	Uses      uint64           `json:"uses"`
}

// DatasetResponse is the GET /v1/datasets/{id} body. CodeSize is the
// byte size of the deployed policy-program artifact (0 when the dataset
// is governed declaratively or not at all).
type DatasetResponse struct {
	ID       crypto.Digest    `json:"id"`
	Owner    identity.Address `json:"owner"`
	MetaHash crypto.Digest    `json:"meta_hash"`
	Policy   *PolicyBody      `json:"policy,omitempty"`
	CodeSize int              `json:"code_size,omitempty"`
	Uses     uint64           `json:"uses"`
}

func (s *Server) handleDatasets(w http.ResponseWriter, r *http.Request) {
	after, limit, ok := listParams(w, r, keyCursor)
	if !ok {
		return
	}
	s.locked(w, func() (int, any) {
		ids, err := s.m.DatasetIDs() // hex-sorted
		if err != nil {
			return fail(http.StatusInternalServerError, CodeInternal, nil, "%v", err)
		}
		return http.StatusOK, keyPage(ids, crypto.Digest.Hex, after, limit, func(id crypto.Digest) (DatasetSummary, bool) {
			info, ok, err := s.m.DatasetInfoOf(id)
			return DatasetSummary{
				ID: id, Owner: info.Owner,
				HasPolicy: info.Policy != nil || info.CodeSize > 0,
				Uses:      info.Uses,
			}, err == nil && ok
		})
	})
}

func (s *Server) handleDataset(w http.ResponseWriter, r *http.Request) {
	id, err := crypto.DigestFromHex(r.PathValue("id"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, CodeBadRequest, "bad dataset id: %v", err)
		return
	}
	s.locked(w, func() (int, any) {
		info, ok, err := s.m.DatasetInfoOf(id)
		if err != nil {
			return fail(http.StatusInternalServerError, CodeInternal, nil, "%v", err)
		}
		if !ok {
			return fail(http.StatusNotFound, CodeNotFound, nil, "dataset %s is not registered", id.Short())
		}
		return http.StatusOK, DatasetResponse{
			ID: info.ID, Owner: info.Owner, MetaHash: info.MetaHash,
			Policy: policyBody(info.Policy), CodeSize: info.CodeSize, Uses: info.Uses,
		}
	})
}

// TxEnvelope wraps a pre-signed transaction for the non-custodial
// mutation endpoints (POST /v1/datasets, PUT /v1/datasets/{id}/policy).
type TxEnvelope struct {
	Tx *ledger.Transaction `json:"tx"`
}

// registryCall decodes a TxEnvelope body and checks that it carries a
// call of the given registry method, returning the transaction and the
// call's ABI-encoded arguments. On failure it has written the error.
func (s *Server) registryCall(w http.ResponseWriter, r *http.Request, method string) (*ledger.Transaction, []byte, bool) {
	var env TxEnvelope
	if !decodeBody(w, r, "bad envelope", &env) {
		return nil, nil, false
	}
	args, err := s.callArgs(env.Tx, method)
	if err != nil {
		writeErr(w, http.StatusBadRequest, CodeBadRequest, "%v", err)
		return nil, nil, false
	}
	return env.Tx, args, true
}

// callArgs validates that tx is a call of the expected registry method
// and returns its ABI-encoded arguments.
func (s *Server) callArgs(tx *ledger.Transaction, method string) ([]byte, error) {
	if tx == nil {
		return nil, fmt.Errorf("missing tx")
	}
	if tx.To != s.m.Registry {
		return nil, fmt.Errorf("tx must target the registry %s, not %s", s.m.Registry.Hex(), tx.To.Hex())
	}
	d := contract.NewDecoder(tx.Data)
	m := d.String()
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("tx data is not a contract call: %w", err)
	}
	if m != method {
		return nil, fmt.Errorf("tx calls %q, want %q", m, method)
	}
	args := d.Blob()
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("tx call arguments: %w", err)
	}
	return args, nil
}

// handleRegisterDataset serves POST /v1/datasets: a pre-signed
// registerData transaction, shape-checked and admitted to the mempool.
// First-come-first-served ownership is enforced by the registry
// contract at apply time, exactly as for a raw /v1/transactions submit.
func (s *Server) handleRegisterDataset(w http.ResponseWriter, r *http.Request) {
	if deadlineExceeded(w, r) {
		return
	}
	tx, args, ok := s.registryCall(w, r, "registerData")
	if !ok {
		return
	}
	d := contract.NewDecoder(args)
	if d.Digest(); d.Err() != nil {
		writeErr(w, http.StatusBadRequest, CodeBadRequest, "bad dataset id: %v", d.Err())
		return
	}
	if d.Digest(); d.Err() != nil {
		writeErr(w, http.StatusBadRequest, CodeBadRequest, "bad meta hash: %v", d.Err())
		return
	}
	s.admitTx(w, tx)
}

// handleSetPolicy serves PUT /v1/datasets/{id}/policy: a pre-signed
// setPolicy transaction whose dataset argument must match the path, and
// whose policy blob must decode and validate — malformed policies are
// rejected here with a client error instead of burning gas on a revert.
func (s *Server) handleSetPolicy(w http.ResponseWriter, r *http.Request) {
	if deadlineExceeded(w, r) {
		return
	}
	pathID, err := crypto.DigestFromHex(r.PathValue("id"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, CodeBadRequest, "bad dataset id: %v", err)
		return
	}
	tx, args, ok := s.registryCall(w, r, "setPolicy")
	if !ok {
		return
	}
	d := contract.NewDecoder(args)
	txID := d.Digest()
	if err := d.Err(); err != nil {
		writeErr(w, http.StatusBadRequest, CodeBadRequest, "bad dataset id in tx: %v", err)
		return
	}
	if txID != pathID {
		writeErr(w, http.StatusBadRequest, CodeBadRequest,
			"tx sets the policy of %s, path names %s", txID.Short(), pathID.Short())
		return
	}
	blob := d.Blob()
	if err := d.Err(); err != nil {
		writeErr(w, http.StatusBadRequest, CodeBadRequest, "bad policy blob: %v", err)
		return
	}
	pol, err := policy.Decode(blob)
	if err != nil {
		writeErr(w, http.StatusBadRequest, CodeBadRequest, "bad policy: %v", err)
		return
	}
	if err := pol.Validate(); err != nil {
		writeErr(w, http.StatusBadRequest, CodeBadRequest, "bad policy: %v", err)
		return
	}
	s.admitTx(w, tx)
}

// PolicyDecision is the JSON shape of one usage-control decision — both
// the /v1/policies/decisions log entries and the /check verdicts.
type PolicyDecision struct {
	DataID      crypto.Digest    `json:"data_id"`
	Subject     identity.Address `json:"subject"`
	Layer       string           `json:"layer"`
	Class       string           `json:"class"`
	Purpose     string           `json:"purpose,omitempty"`
	Aggregation uint64           `json:"aggregation"`
	Height      uint64           `json:"height"`
	Invocations uint64           `json:"invocations"`
	Code        string           `json:"code"`
	Clause      string           `json:"clause,omitempty"`
	Allowed     bool             `json:"allowed"`
}

func decisionJSON(rec policy.DecisionRecord) PolicyDecision {
	return PolicyDecision{
		DataID:      rec.DataID,
		Subject:     rec.Subject,
		Layer:       rec.Layer,
		Class:       rec.Class,
		Purpose:     rec.Purpose,
		Aggregation: rec.Aggregation,
		Height:      rec.Height,
		Invocations: rec.Invocations,
		Code:        rec.Code,
		Clause:      rec.Clause,
		Allowed:     rec.Allowed(),
	}
}

// handleCheckPolicy serves GET /v1/datasets/{id}/check: a pure
// evaluation of the dataset's policy against ?layer, ?class, ?purpose
// and ?agg — no event, no consumption. An allow answers 200 with the
// decision; a deny answers 403 with the policy_violation envelope
// naming the violated clause and enforcement layer, exactly the shape
// workload flows surface when enforcement rejects them.
func (s *Server) handleCheckPolicy(w http.ResponseWriter, r *http.Request) {
	id, err := crypto.DigestFromHex(r.PathValue("id"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, CodeBadRequest, "bad dataset id: %v", err)
		return
	}
	q := r.URL.Query()
	layer := q.Get("layer")
	if layer == "" {
		layer = policy.LayerMatch
	}
	class := q.Get("class")
	if class == "" {
		class = market.DefaultComputationClass
	}
	agg := uint64(1)
	if raw := q.Get("agg"); raw != "" {
		if agg, err = strconv.ParseUint(raw, 10, 64); err != nil {
			writeErr(w, http.StatusBadRequest, CodeBadRequest, "bad agg %q", raw)
			return
		}
	}
	s.locked(w, func() (int, any) {
		if _, ok, err := s.m.DatasetInfoOf(id); err != nil || !ok {
			return fail(http.StatusNotFound, CodeNotFound, nil, "dataset %s is not registered", id.Short())
		}
		rec, err := s.m.EvalPolicy(id, layer, class, q.Get("purpose"), agg)
		if err != nil {
			return fail(http.StatusBadRequest, CodeBadRequest, nil, "%v", err)
		}
		if !rec.Allowed() {
			return fail(http.StatusForbidden, CodePolicyViolation,
				&ErrorDetails{Clause: rec.Clause, Layer: rec.Layer, Code: rec.Code},
				"policy of dataset %s denies %s at the %s layer: %s (clause %s)",
				id.Short(), class, rec.Layer, rec.Code, rec.Clause)
		}
		return http.StatusOK, decisionJSON(rec)
	})
}

// handlePolicyDecisions serves GET /v1/policies/decisions: the decoded
// on-chain usage-control decision log, oldest first — what pds2-audit
// replays offline against the PolicySet history.
func (s *Server) handlePolicyDecisions(w http.ResponseWriter, r *http.Request) {
	offset, limit, ok := listParams(w, r, offsetCursor)
	if !ok {
		return
	}
	// Events returns its own copy of the committed log: everything past
	// the copy runs unlocked.
	s.mu.Lock()
	events := s.m.Chain.Events(policy.EvPolicyDecision)
	s.mu.Unlock()
	page := offsetPage(events, offset, limit)
	resp := Page[PolicyDecision]{Items: make([]PolicyDecision, 0, len(page.Items)), Next: page.Next}
	for _, ev := range page.Items {
		rec, err := policy.DecodeDecisionRecord(ev.Data)
		if err != nil {
			writeErr(w, http.StatusInternalServerError, CodeInternal, "corrupt decision event: %v", err)
			return
		}
		resp.Items = append(resp.Items, decisionJSON(*rec))
	}
	writeJSON(w, http.StatusOK, resp)
}
