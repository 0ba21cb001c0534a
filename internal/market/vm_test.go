package market

import (
	"bytes"
	"errors"
	"testing"

	"pds2/internal/crypto"
	"pds2/internal/identity"
	"pds2/internal/policy"
	"pds2/internal/vm"
)

// vmWorldOutcome is everything observable about one equivalence-run
// world: the ordered PolicyDecision event payloads, the final
// consumption counter of the lifecycle dataset, and the probe records.
type vmWorldOutcome struct {
	decisions [][]byte          // EvPolicyDecision payloads, chain order
	probes    map[string][]byte // label → DecisionRecord bytes
	uses      uint64
}

// runBuiltinEquivalenceWorld drives one deterministic world: three
// datasets carrying the same three policies — attached declaratively
// when compiled is false, or re-expressed in the DSL by
// vm.BuiltinPolicySource, compiled to bytecode and deployed when true —
// then probes every denial clause through evalPolicy views and settles
// a full lifecycle (match → admission → enclave → settle) plus an
// exhausted re-match against the same dataset.
func runBuiltinEquivalenceWorld(t *testing.T, compiled bool) vmWorldOutcome {
	t.Helper()
	w := newTestWorld(t, 77, 4, 1)
	exec := w.executors[0]

	main := &policy.Policy{ // lifecycle dataset: settles end to end
		AllowedClasses: []string{DefaultComputationClass},
		MinAggregation: 1,
		ExpiryHeight:   w.m.Height() + 10_000,
		MaxInvocations: 8,
	}
	expired := &policy.Policy{ExpiryHeight: 1} // registration heights are past 1
	// strict probes class, purpose and aggregation denials.
	strict := &policy.Policy{
		AllowedClasses: []string{"stats"},
		MinAggregation: 3,
		Purposes:       []string{"research"},
	}
	oneShot := &policy.Policy{MaxInvocations: 1} // exhaustion probe
	for i, pol := range []*policy.Policy{main, expired, strict, oneShot} {
		var err error
		if compiled {
			err = w.providers[i].DeployPolicy(w.refs[i][0].ID, vm.BuiltinPolicySource(pol))
		} else {
			err = w.providers[i].SetPolicy(w.refs[i][0].ID, pol)
		}
		if err != nil {
			t.Fatalf("attach policy %d (compiled=%v): %v", i, compiled, err)
		}
	}

	out := vmWorldOutcome{probes: make(map[string][]byte)}
	probe := func(label string, ds int, class, purpose string, agg uint64) {
		t.Helper()
		rec, err := w.m.EvalPolicy(w.refs[ds][0].ID, policy.LayerMatch, class, purpose, agg)
		if err != nil {
			t.Fatalf("probe %s (compiled=%v): %v", label, compiled, err)
		}
		out.probes[label] = rec.Encode()
	}
	probe("ok", 0, DefaultComputationClass, "", 1)
	probe("class", 2, DefaultComputationClass, "research", 3)
	probe("purpose", 2, "stats", "ads", 3)
	probe("aggregation", 2, "stats", "research", 1)

	// Expiry needs a real block height (views evaluate at height 0), so
	// it goes through an on-chain match-layer enforcement transaction.
	recs, err := w.m.enforcePolicies(w.providers[1].ID, policy.LayerMatch,
		DefaultComputationClass, "", 1, []crypto.Digest{w.refs[1][0].ID})
	if err != nil {
		t.Fatalf("expired enforcement (compiled=%v): %v", compiled, err)
	}
	if len(recs) != 1 {
		t.Fatalf("expired enforcement: %d records", len(recs))
	}
	out.probes["expired"] = recs[0].Encode()

	// Exhaustion: a workload admits the one-shot dataset, consuming its
	// single permitted invocation; the next workload's match must then
	// deny with the stable invocations_exhausted code.
	w.spec.MinProviders, w.spec.MinItems = 1, 1
	oneShotWL, err := w.consumer.SubmitWorkload(w.spec, 60_000)
	if err != nil {
		t.Fatal(err)
	}
	auths3, err := w.providers[3].Authorize(oneShotWL, exec.ID.Address(), w.refs[3], w.spec.ExpiryHeight)
	if err != nil {
		t.Fatalf("one-shot authorize (compiled=%v): %v", compiled, err)
	}
	exec.Accept(oneShotWL, auths3)
	if err := exec.Register(oneShotWL); err != nil {
		t.Fatalf("one-shot register (compiled=%v): %v", compiled, err)
	}
	exhaustedWL, err := w.consumer.SubmitWorkload(w.spec, 60_000)
	if err != nil {
		t.Fatal(err)
	}
	var denial *PolicyDenialError
	if _, err := w.providers[3].Authorize(exhaustedWL, exec.ID.Address(), w.refs[3], w.spec.ExpiryHeight); !errors.As(err, &denial) {
		t.Fatalf("exhausted authorize (compiled=%v): %v", compiled, err)
	}
	out.probes["exhausted"] = denial.Record.Encode()

	// Full lifecycle against the main dataset: match allow, admission
	// allow (consuming one of the eight permitted invocations), enclave
	// allow, settle.
	addr, err := w.consumer.SubmitWorkload(w.spec, 60_000)
	if err != nil {
		t.Fatal(err)
	}
	auths, err := w.providers[0].Authorize(addr, exec.ID.Address(), w.refs[0], w.spec.ExpiryHeight)
	if err != nil {
		t.Fatalf("authorize (compiled=%v): %v", compiled, err)
	}
	exec.Accept(addr, auths)
	if err := exec.Register(addr); err != nil {
		t.Fatal(err)
	}
	if err := w.consumer.Start(addr); err != nil {
		t.Fatal(err)
	}
	if _, err := RunWorkloadExecution(addr, w.executors); err != nil {
		t.Fatal(err)
	}
	if err := w.consumer.Finalize(addr); err != nil {
		t.Fatal(err)
	}
	if st, err := w.m.WorkloadStateOf(addr); err != nil || st != StateComplete {
		t.Fatalf("state = %v err = %v", st, err)
	}

	for _, ev := range w.m.Chain.Events(policy.EvPolicyDecision) {
		out.decisions = append(out.decisions, ev.Data)
	}
	if out.uses, err = w.m.PolicyUses(w.refs[0][0].ID); err != nil {
		t.Fatal(err)
	}
	replayClean(t, w)
	return out
}

// TestVMBuiltinPolicyEquivalence is the acceptance gate for the
// bytecode engine (pinned in `make vm-smoke` / `make ci`): the built-in
// five-clause policy re-expressed in the DSL, compiled and deployed as
// bytecode must be observationally identical to the hardwired Go
// evaluator across all six stable decision codes — bit-identical
// DecisionRecords from views and denials, a bit-identical
// PolicyDecision event log over a full settled lifecycle, and the same
// consumption accounting.
func TestVMBuiltinPolicyEquivalence(t *testing.T) {
	declarative := runBuiltinEquivalenceWorld(t, false)
	viaVM := runBuiltinEquivalenceWorld(t, true)

	wantCodes := map[string]string{
		"ok":          policy.CodeOK,
		"expired":     policy.CodeExpired,
		"class":       policy.CodeClassForbidden,
		"purpose":     policy.CodePurposeMismatch,
		"aggregation": policy.CodeAggregationFloor,
		"exhausted":   policy.CodeExhausted,
	}
	for label, want := range wantCodes {
		d, v := declarative.probes[label], viaVM.probes[label]
		if !bytes.Equal(d, v) {
			t.Errorf("probe %s: declarative record %x != vm record %x", label, d, v)
			continue
		}
		rec, err := policy.DecodeDecisionRecord(d)
		if err != nil {
			t.Fatalf("probe %s: %v", label, err)
		}
		if rec.Code != want {
			t.Errorf("probe %s: code %q, want %q", label, rec.Code, want)
		}
	}

	if len(declarative.decisions) == 0 {
		t.Fatal("no decision events logged")
	}
	if len(declarative.decisions) != len(viaVM.decisions) {
		t.Fatalf("decision event counts diverge: declarative %d, vm %d",
			len(declarative.decisions), len(viaVM.decisions))
	}
	for i := range declarative.decisions {
		if !bytes.Equal(declarative.decisions[i], viaVM.decisions[i]) {
			t.Errorf("decision event %d diverges:\n  declarative %x\n  vm          %x",
				i, declarative.decisions[i], viaVM.decisions[i])
		}
	}
	if declarative.uses != viaVM.uses {
		t.Fatalf("consumption diverges: declarative %d, vm %d", declarative.uses, viaVM.uses)
	}
}

// TestVMPolicyDeniedAtAllThreeLayers re-runs the core three-layer
// usage-control guarantee with the policy expressed as a deployed
// bytecode program: the compiled forbidden-class program must deny at
// match, admission and enclave exactly like its declarative twin,
// through the single registry chokepoint all layers share.
func TestVMPolicyDeniedAtAllThreeLayers(t *testing.T) {
	w := newTestWorld(t, 11, 1, 1)
	p, exec := w.providers[0], w.executors[0]
	ref := w.refs[0][0]

	forbid := &policy.Policy{
		AllowedClasses: []string{"stats"}, // the spec's class is "train"
		MinAggregation: 1,
		ExpiryHeight:   w.m.Height() + 10_000,
		MaxInvocations: 8,
	}
	if err := p.DeployPolicy(ref.ID, vm.BuiltinPolicySource(forbid)); err != nil {
		t.Fatal(err)
	}
	// The deployed artifact is on chain, decodes, and re-verifies
	// against its embedded source.
	code, err := w.m.PolicyCodeOf(ref.ID)
	if err != nil || len(code) == 0 {
		t.Fatalf("PolicyCodeOf: %d bytes, err %v", len(code), err)
	}
	mod, err := vm.Decode(code)
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.VerifySource(mod); err != nil {
		t.Fatal(err)
	}
	if n := len(w.m.Chain.Events(EvPolicyCodeDeployed)); n != 1 {
		t.Fatalf("%d PolicyCodeDeployed events", n)
	}

	addr, err := w.consumer.SubmitWorkload(w.spec, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	var denial *PolicyDenialError
	if _, err := p.Authorize(addr, exec.ID.Address(), w.refs[0], w.spec.ExpiryHeight); !errors.As(err, &denial) {
		t.Fatalf("match-layer error = %v", err)
	}
	if denial.Record.Layer != policy.LayerMatch || denial.Record.Code != policy.CodeClassForbidden {
		t.Fatalf("match denial = %+v", denial.Record)
	}

	// Bypass the match gate with hand-forged credentials: the workload
	// contract's admission call still runs the program and refuses.
	wid := WorkloadIDFor(addr)
	grant, err := p.Vault.Grant(ref.ID, wid, exec.ID.Address(), w.spec.ExpiryHeight)
	if err != nil {
		t.Fatal(err)
	}
	exec.Accept(addr, []Authorization{{
		Cert:  identity.IssueCert(p.ID, wid, ref.ID, exec.ID.Address(), w.spec.ExpiryHeight),
		Grant: grant,
	}})
	denial = nil
	if err := exec.Register(addr); !errors.As(err, &denial) {
		t.Fatalf("admission-layer error = %v", err)
	}
	if denial.Record.Layer != policy.LayerAdmission || denial.Record.Code != policy.CodeClassForbidden {
		t.Fatalf("admission denial = %+v", denial.Record)
	}

	denial = nil
	if err := exec.TrainLocal(addr); !errors.As(err, &denial) {
		t.Fatalf("enclave-layer error = %v", err)
	}
	if denial.Record.Layer != policy.LayerEnclave || denial.Record.Code != policy.CodeClassForbidden {
		t.Fatalf("enclave denial = %+v", denial.Record)
	}

	byLayer := decisionsByLayer(t, w)
	for _, layer := range []string{policy.LayerMatch, policy.LayerAdmission, policy.LayerEnclave} {
		recs := byLayer[layer]
		if len(recs) != 1 {
			t.Fatalf("%s layer logged %d decisions", layer, len(recs))
		}
		if recs[0].Allowed() || recs[0].Code != policy.CodeClassForbidden || recs[0].Clause != policy.ClauseClasses {
			t.Fatalf("%s decision = %+v", layer, recs[0])
		}
	}
	replayClean(t, w)
	if uses, err := w.m.PolicyUses(ref.ID); err != nil || uses != 0 {
		t.Fatalf("uses = %d err = %v (denied batches must not consume)", uses, err)
	}
}

// TestVMPolicyRejectsBadDeploys pins deployPolicy's gate: non-owners,
// corrupt artifacts, and forged code sections (valid container and
// checksum, bytecode not matching the embedded source) must all revert
// without binding anything.
func TestVMPolicyRejectsBadDeploys(t *testing.T) {
	w := newTestWorld(t, 21, 2, 1)
	p0, p1 := w.providers[0], w.providers[1]
	ref := w.refs[0][0]
	good, err := vm.BuildSource("allow")
	if err != nil {
		t.Fatal(err)
	}

	// Non-owner deploy.
	if _, err := MustSucceed(w.m.SendAndSeal(p1.ID, w.m.Registry, 0,
		DeployPolicyData(ref.ID, good))); err == nil {
		t.Fatal("non-owner deployPolicy succeeded")
	}
	// Corrupt artifact (checksum breaks).
	bad := append([]byte(nil), good...)
	bad[len(bad)-1] ^= 0xFF
	if _, err := MustSucceed(w.m.SendAndSeal(p0.ID, w.m.Registry, 0,
		DeployPolicyData(ref.ID, bad))); err == nil {
		t.Fatal("corrupt artifact deployed")
	}
	// Forged code: transplant a different program's code section behind
	// an honest source and re-encode. The container checksum is valid —
	// only deploy-time source re-verification catches the mismatch.
	other, err := vm.CompileSource(`deny "class_forbidden" "allowed_classes"`)
	if err != nil {
		t.Fatal(err)
	}
	honest, err := vm.Decode(good)
	if err != nil {
		t.Fatal(err)
	}
	forged := &vm.Module{NumLocals: other.NumLocals, Consts: other.Consts,
		Code: other.Code, Source: honest.Source}
	if _, err := MustSucceed(w.m.SendAndSeal(p0.ID, w.m.Registry, 0,
		DeployPolicyData(ref.ID, forged.Encode()))); err == nil {
		t.Fatal("forged code section deployed")
	}
	// Nothing bound, no deploy event.
	if code, err := w.m.PolicyCodeOf(ref.ID); err != nil || len(code) != 0 {
		t.Fatalf("code bound after rejected deploys: %d bytes, err %v", len(code), err)
	}
	if n := len(w.m.Chain.Events(EvPolicyCodeDeployed)); n != 0 {
		t.Fatalf("%d PolicyCodeDeployed events after rejected deploys", n)
	}
	// The owner's honest deploy still lands.
	if err := p0.DeployPolicy(ref.ID, "allow"); err != nil {
		t.Fatal(err)
	}
	if code, err := w.m.PolicyCodeOf(ref.ID); err != nil || len(code) == 0 {
		t.Fatalf("honest deploy did not bind: %d bytes, err %v", len(code), err)
	}
}

// TestVMPolicyStatefulProgram exercises what the declarative engine
// cannot express: a program keeping per-dataset on-chain state (a
// persistent evaluation counter in the registry's polstate partition)
// and emitting namespaced audit events, self-exhausting after two
// evaluations.
func TestVMPolicyStatefulProgram(t *testing.T) {
	w := newTestWorld(t, 31, 1, 1)
	p := w.providers[0]
	ref := w.refs[0][0]

	src := `
let n = load("evals")
if n == false { n = 0 }
n = n + 1
store("evals", n)
emit("probe", layer, n)
if n > 2 { deny "invocations_exhausted" "max_invocations" }
allow
`
	if err := p.DeployPolicy(ref.ID, src); err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{policy.CodeOK, policy.CodeOK, policy.CodeExhausted} {
		recs, err := w.m.enforcePolicies(p.ID, policy.LayerMatch,
			DefaultComputationClass, "", 1, []crypto.Digest{ref.ID})
		if err != nil {
			t.Fatalf("evaluation %d: %v", i, err)
		}
		if len(recs) != 1 || recs[0].Code != want {
			t.Fatalf("evaluation %d: records = %+v, want code %s", i, recs, want)
		}
	}
	// Each evaluation appended one namespaced program event carrying the
	// running counter.
	if n := len(w.m.Chain.Events(vm.EventTopicPrefix + "probe")); n != 3 {
		t.Fatalf("%d vm/probe events, want 3", n)
	}
	// The counter lives in the registry's polstate partition, outside
	// the reach of every other storage namespace.
	st := w.m.Chain.State()
	if raw := st.GetStorage(w.m.Registry, "polstate/"+ref.ID.Hex()+"/evals"); len(raw) == 0 {
		t.Fatal("program state not persisted under polstate/")
	}
	replayClean(t, w)
}

// TestVMPolicyEvaluateHostCall runs the production evaluate() host call
// (vm.ContextHost.EvalBuiltin) through on-chain enforcePolicy
// transactions: a program that delegates to the built-in evaluator must
// decide as policy.Evaluate does, pay the GasEvalBuiltin surcharge, and
// leave its decision as a PolicyDecision event on the chain.
func TestVMPolicyEvaluateHostCall(t *testing.T) {
	w := newTestWorld(t, 78, 3, 1)
	cases := []struct {
		source  string
		classes []string // the policy the evaluate() arguments spell; nil: no host call
		allowed bool
		gas     uint64 // pinned gas of the enforcePolicy transaction
	}{
		{`let c = evaluate("train", 1, 0, "", 0) deny c clauseof(c)`, []string{"train"}, false, 25_661},
		{`let c = evaluate("train,stats", 1, 0, "", 0) deny c clauseof(c)`, []string{"train", "stats"}, true, 25_437},
		// The first program's decision spelled out, without the host call.
		{`deny "class_forbidden" "allowed_classes"`, nil, false, 25_145},
	}
	for i, c := range cases {
		prov, id := w.providers[i], w.refs[i][0].ID
		if err := prov.DeployPolicy(id, c.source); err != nil {
			t.Fatalf("deploy %d: %v", i, err)
		}
		before := len(w.m.Chain.Events(policy.EvPolicyDecision))
		rcpt, err := MustSucceed(w.m.SendAndSeal(prov.ID, w.m.Registry, 0,
			EnforcePolicyData(policy.LayerMatch, "stats", "", 1, id)))
		if err != nil {
			t.Fatalf("enforce %d: %v", i, err)
		}
		recs, err := policy.DecodeDecisionRecords(rcpt.Return)
		if err != nil || len(recs) != 1 {
			t.Fatalf("enforce %d: %d records, %v", i, len(recs), err)
		}
		rec := recs[0]
		if rec.Allowed() != c.allowed {
			t.Errorf("case %d: allowed = %v (%s/%s)", i, rec.Allowed(), rec.Code, rec.Clause)
		}
		if c.classes != nil {
			want := policy.Evaluate(&policy.Policy{AllowedClasses: c.classes, MinAggregation: 1}, rec.Request())
			if rec.Code != want.Code || rec.Clause != want.Clause {
				t.Errorf("case %d: decision %s/%s, policy.Evaluate says %s/%s", i, rec.Code, rec.Clause, want.Code, want.Clause)
			}
		}
		evs := w.m.Chain.Events(policy.EvPolicyDecision)
		if len(evs) != before+1 || !bytes.Equal(evs[len(evs)-1].Data, rec.Encode()) {
			t.Errorf("case %d: decision event not on chain (%d -> %d events)", i, before, len(evs))
		}
		if rcpt.GasUsed != c.gas {
			t.Errorf("case %d: gas used %d, pinned %d", i, rcpt.GasUsed, c.gas)
		}
	}
	// Same record, same event: the host call alone costs the surcharge
	// plus the instructions that push its arguments.
	if d := cases[0].gas - cases[2].gas; d < vm.GasEvalBuiltin {
		t.Errorf("evaluate() added %d gas, less than the %d surcharge", d, vm.GasEvalBuiltin)
	}
}
