package vm

import (
	"pds2/internal/contract"
	"pds2/internal/policy"
	"pds2/internal/semantic"
)

// EventTopicPrefix namespaces program-emitted events. The registry
// contract emits audit events (PolicyDecision, PolicySet, …) from the
// same address, so program topics are prefixed to make forging them
// from policy code impossible.
const EventTopicPrefix = "vm/"

// GasEvalBuiltin is the surcharge of one evaluate() host call,
// mirroring the registry's per-evaluation charge for the built-in
// engine so a program delegating to evaluate() costs what the
// hardwired path costs.
const GasEvalBuiltin = 500

// ContextHost adapts a contract execution context to the semantic.Host
// interface: gas flows into the journaled runtime's meter (so
// out-of-gas unwinds through the journal), state lives under a
// caller-chosen key prefix, and events are topic-namespaced. A failed
// Context operation halts the contract frame; each method here catches
// that halt and returns its error, so the engines see the host errors
// the semantic.Host contract promises. It is the production host — the
// same instance drives both the VM and, in the proptest replica rows
// that substitute the reference evaluator
// (internal/proptest/refinterp), the tree-walking oracle.
type ContextHost struct {
	ctx    *contract.Context
	prefix string
	req    semantic.Request
}

// NewContextHost builds a host over ctx with the given state-key
// prefix.
func NewContextHost(ctx *contract.Context, prefix string, req semantic.Request) *ContextHost {
	return &ContextHost{ctx: ctx, prefix: prefix, req: req}
}

// UseGas charges the runtime gas meter.
func (h *ContextHost) UseGas(n uint64) (err error) {
	defer contract.Catch(&err)
	h.ctx.UseGas(n)
	return nil
}

// Request returns the request under evaluation.
func (h *ContextHost) Request() semantic.Request { return h.req }

// Load reads from the program's state partition (charges GasSload via
// the context).
func (h *ContextHost) Load(key string) (v []byte, err error) {
	defer contract.Catch(&err)
	return h.ctx.Get(h.prefix + key), nil
}

// Store writes the program's state partition (charges GasSstore via the
// context).
func (h *ContextHost) Store(key string, val []byte) (err error) {
	defer contract.Catch(&err)
	h.ctx.Set(h.prefix+key, val)
	return nil
}

// EmitEvent appends a namespaced program event (charges log gas via the
// context).
func (h *ContextHost) EmitEvent(topic string, data []byte) (err error) {
	defer contract.Catch(&err)
	h.ctx.Emit(EventTopicPrefix+topic, data)
	return nil
}

// EvalBuiltin charges GasEvalBuiltin and runs the built-in five-clause
// evaluator against the host request.
func (h *ContextHost) EvalBuiltin(classes []string, minAgg, expiry uint64, purposes []string, maxInv uint64) (string, error) {
	if err := h.UseGas(GasEvalBuiltin); err != nil {
		return "", err
	}
	dec := policy.Evaluate(&policy.Policy{
		AllowedClasses: classes,
		MinAggregation: minAgg,
		ExpiryHeight:   expiry,
		Purposes:       purposes,
		MaxInvocations: maxInv,
	}, policy.Request{
		Layer:       h.req.Layer,
		Class:       h.req.Class,
		Purpose:     h.req.Purpose,
		Aggregation: h.req.Aggregation,
		Height:      h.req.Height,
		Invocations: h.req.Invocations,
	})
	return dec.Code, nil
}
