package market

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"pds2/internal/contract"
	"pds2/internal/crypto"
	"pds2/internal/identity"
	"pds2/internal/ledger"
	"pds2/internal/ml"
	"pds2/internal/semantic"
	"pds2/internal/storage"
	"pds2/internal/token"
)

// testWorld is a fully wired marketplace: one consumer, n providers with
// datasets, k executors, one storage node.
type testWorld struct {
	m         *Market
	consumer  *Consumer
	providers []*Provider
	executors []*Executor
	node      *storage.Node
	refs      [][]storage.DataRef // per provider
	test      *ml.Dataset
	params    TrainerParams
	spec      *Spec
}

func newTestWorld(t *testing.T, seed uint64, nProviders, nExecutors int) *testWorld {
	t.Helper()
	rng := crypto.NewDRBGFromUint64(seed, "market-test")

	ids := make([]*identity.Identity, 0, nProviders+nExecutors+1)
	alloc := map[identity.Address]uint64{}
	for i := 0; i < nProviders+nExecutors+1; i++ {
		id := identity.New("actor", rng.Fork("id"))
		ids = append(ids, id)
		alloc[id.Address()] = 1_000_000
	}
	m, err := New(Config{Seed: seed, GenesisAlloc: alloc})
	if err != nil {
		t.Fatal(err)
	}
	w := &testWorld{m: m, node: storage.NewNode(storage.NewMemStore())}

	w.consumer, err = NewConsumer(m, ids[0])
	if err != nil {
		t.Fatal(err)
	}

	// Data: a classification task split across providers.
	data, _ := ml.GenerateClassification(ml.SyntheticConfig{N: 400 * nProviders, Dim: 8, LabelNoise: 0.05}, rng)
	train, test := data.TrainTestSplit(0.25, rng)
	w.test = test
	parts := train.PartitionIID(nProviders, rng)

	for i := 0; i < nProviders; i++ {
		p, err := NewProvider(m, ids[1+i], w.node)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := p.AddDataset(parts[i], semantic.Metadata{
			"category": semantic.String("sensor.temperature"),
			"samples":  semantic.Number(float64(parts[i].Len())),
		})
		if err != nil {
			t.Fatal(err)
		}
		w.providers = append(w.providers, p)
		w.refs = append(w.refs, []storage.DataRef{ref})
	}
	for i := 0; i < nExecutors; i++ {
		e, err := NewExecutor(m, ids[1+nProviders+i], w.node)
		if err != nil {
			t.Fatal(err)
		}
		w.executors = append(w.executors, e)
	}

	w.params = TrainerParams{Dim: 8, Epochs: 3, Lambda: 1e-3}
	w.spec = &Spec{
		Predicate:      `category isa "sensor" and samples >= 10`,
		MinProviders:   uint64(nProviders),
		MinItems:       uint64(nProviders),
		ExpiryHeight:   m.Height() + 1_000,
		ExecutorFeeBps: 1_000, // 10% to executors
		Measurement:    TrainerMeasurement(w.params.Encode()),
		QAPub:          m.QA.PublicKey(),
		Params:         w.params.Encode(),
	}
	return w
}

// runLifecycle drives the full Fig. 2 sequence and returns the workload
// address and result payload.
func (w *testWorld) runLifecycle(t *testing.T, budget uint64) (identity.Address, []byte) {
	t.Helper()
	addr, result, err := RunLifecycle(w.consumer, w.spec, budget, w.providers, w.executors)
	if err != nil {
		t.Fatal(err)
	}
	return addr, result
}

// runExplicitLifecycle is the Fig. 2 sequence spelled out step by step,
// as every driver wrote it before RunLifecycle: the reference that
// TestRunLifecycleMatchesExplicitSteps holds the helper to.
func (w *testWorld) runExplicitLifecycle(t *testing.T, budget uint64) (identity.Address, []byte) {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	addr, err := w.consumer.SubmitWorkload(w.spec, budget)
	must(err)
	for i, p := range w.providers {
		refs, err := p.EligibleData(w.spec)
		must(err)
		exec := w.executors[i%len(w.executors)]
		auths, err := p.Authorize(addr, exec.ID.Address(), refs, w.spec.ExpiryHeight)
		must(err)
		exec.Accept(addr, auths)
	}
	var active []*Executor
	for _, e := range w.executors {
		if len(e.assignments[addr]) > 0 {
			must(e.Register(addr))
			active = append(active, e)
		}
	}
	must(w.consumer.Start(addr))
	result, err := RunWorkloadExecution(addr, active)
	must(err)
	must(w.consumer.Finalize(addr))
	return addr, result
}

// TestRunLifecycleMatchesExplicitSteps runs two worlds from one seed,
// one through the explicit steps and one through RunLifecycle, and
// requires the same chain: head hash, state root, event log and result
// payload. The 2 × 4 shape leaves two executors without authorizations.
func TestRunLifecycleMatchesExplicitSteps(t *testing.T) {
	for _, shape := range []struct{ providers, executors int }{{4, 2}, {2, 4}} {
		ref := newTestWorld(t, 60, shape.providers, shape.executors)
		refAddr, refResult := ref.runExplicitLifecycle(t, 100_000)
		w := newTestWorld(t, 60, shape.providers, shape.executors)
		addr, result := w.runLifecycle(t, 100_000)

		if st, err := w.m.WorkloadStateOf(addr); err != nil || st != StateComplete {
			t.Fatalf("%d×%d: state = %v, %v", shape.providers, shape.executors, st, err)
		}
		if addr != refAddr || !bytes.Equal(result, refResult) {
			t.Fatalf("%d×%d: workload or result payload differs", shape.providers, shape.executors)
		}
		if got, want := w.m.Chain.Head().Hash(), ref.m.Chain.Head().Hash(); got != want {
			t.Fatalf("%d×%d: head %s, want %s", shape.providers, shape.executors, got.Hex(), want.Hex())
		}
		if got, want := w.m.Chain.State().Root(), ref.m.Chain.State().Root(); got != want {
			t.Fatalf("%d×%d: root %s, want %s", shape.providers, shape.executors, got.Hex(), want.Hex())
		}
		if !reflect.DeepEqual(w.m.Chain.Events(""), ref.m.Chain.Events("")) {
			t.Fatalf("%d×%d: event logs differ", shape.providers, shape.executors)
		}
	}
}

func TestFullLifecycle(t *testing.T) {
	w := newTestWorld(t, 1, 4, 2)
	const budget = 100_000
	balancesBefore := map[identity.Address]uint64{}
	for _, p := range w.providers {
		balancesBefore[p.ID.Address()] = w.m.Chain.State().Balance(p.ID.Address())
	}
	for _, e := range w.executors {
		balancesBefore[e.ID.Address()] = w.m.Chain.State().Balance(e.ID.Address())
	}

	addr, result := w.runLifecycle(t, budget)

	// State machine reached Complete.
	st, err := w.m.WorkloadStateOf(addr)
	if err != nil {
		t.Fatal(err)
	}
	if st != StateComplete {
		t.Fatalf("state = %v", st)
	}

	// The consumer can fetch and verify the result.
	payload, err := w.consumer.FetchResult(addr, w.executors[0])
	if err != nil {
		t.Fatal(err)
	}
	model, scores, err := DecodeResultModel(payload, w.params.Lambda)
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != len(w.providers) {
		t.Fatalf("scores for %d providers", len(scores))
	}
	if acc := ml.Accuracy(model, w.test); acc < 0.85 {
		t.Fatalf("trained model accuracy = %v", acc)
	}
	_ = result

	// Rewards: every provider and every executor got paid, and payouts
	// sum exactly to the budget.
	var paid uint64
	for _, p := range w.providers {
		gain := w.m.Chain.State().Balance(p.ID.Address()) - balancesBefore[p.ID.Address()]
		if gain == 0 {
			t.Fatalf("provider %s unpaid", p.ID.Address().Short())
		}
		paid += gain
	}
	for _, e := range w.executors {
		gain := w.m.Chain.State().Balance(e.ID.Address()) - balancesBefore[e.ID.Address()]
		if gain == 0 {
			t.Fatalf("executor %s unpaid", e.ID.Address().Short())
		}
		paid += gain
	}
	if paid != budget {
		t.Fatalf("total payouts %d != budget %d", paid, budget)
	}

	// The audit trail contains the full lifecycle.
	for _, topic := range []string{
		EvWorkloadRegistered, EvExecutorRegistered, EvDataContributed,
		EvWorkloadStarted, EvResultSubmitted, EvRewardPaid, EvWorkloadFinalized,
	} {
		if len(w.m.Chain.Events(topic)) == 0 {
			t.Fatalf("no %s event in audit log", topic)
		}
	}
}

func TestSingleExecutorLifecycle(t *testing.T) {
	w := newTestWorld(t, 2, 2, 1)
	addr, _ := w.runLifecycle(t, 10_000)
	st, _ := w.m.WorkloadStateOf(addr)
	if st != StateComplete {
		t.Fatalf("state = %v", st)
	}
}

func TestRewardsProportionalToContribution(t *testing.T) {
	// Provider 0 contributes 3 datasets, provider 1 contributes 1; the
	// sample-count scores should pay provider 0 roughly 3x.
	w := newTestWorld(t, 3, 2, 1)
	rng := crypto.NewDRBGFromUint64(99, "extra")
	extra, _ := ml.GenerateClassification(ml.SyntheticConfig{N: 800, Dim: 8}, rng)
	parts := extra.PartitionIID(2, rng)
	for _, part := range parts {
		ref, err := w.providers[0].AddDataset(part, semantic.Metadata{
			"category": semantic.String("sensor.temperature"),
			"samples":  semantic.Number(float64(part.Len())),
		})
		if err != nil {
			t.Fatal(err)
		}
		w.refs[0] = append(w.refs[0], ref)
	}
	before0 := w.m.Chain.State().Balance(w.providers[0].ID.Address())
	before1 := w.m.Chain.State().Balance(w.providers[1].ID.Address())
	w.runLifecycle(t, 90_000)
	gain0 := w.m.Chain.State().Balance(w.providers[0].ID.Address()) - before0
	gain1 := w.m.Chain.State().Balance(w.providers[1].ID.Address()) - before1
	if gain0 <= 2*gain1 {
		t.Fatalf("contribution-weighted payout violated: %d vs %d", gain0, gain1)
	}
}

func TestTamperedResultDisputedAndRefunded(t *testing.T) {
	w := newTestWorld(t, 4, 2, 2)
	w.executors[1].TamperResult = true
	const budget = 50_000
	consumerBefore := w.m.Chain.State().Balance(w.consumer.ID.Address())

	// Execution: the tampering executor submits a divergent result; the
	// second submission triggers the dispute, so settlement fails.
	addr, _, err := RunLifecycle(w.consumer, w.spec, budget, w.providers, w.executors)
	if err == nil {
		t.Fatal("a disputed workload settled")
	}
	st, err2 := w.m.WorkloadStateOf(addr)
	if err2 != nil {
		t.Fatal(err2)
	}
	if st != StateDisputed {
		t.Fatalf("state = %v, want disputed", st)
	}
	// The consumer got the escrow back (it paid only the budget, which
	// was refunded in full).
	consumerAfter := w.m.Chain.State().Balance(w.consumer.ID.Address())
	if consumerAfter != consumerBefore {
		t.Fatalf("consumer balance %d, want %d", consumerAfter, consumerBefore)
	}
	if len(w.m.Chain.Events(EvWorkloadDisputed)) == 0 {
		t.Fatal("no dispute event")
	}
}

func TestWrongEnclaveCodeRejected(t *testing.T) {
	// The consumer pins a measurement; an executor running different
	// params (and thus different code) cannot register.
	w := newTestWorld(t, 5, 1, 1)
	addr, err := w.consumer.SubmitWorkload(w.spec, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	refs, _ := w.providers[0].EligibleData(w.spec)
	auths, _ := w.providers[0].Authorize(addr, w.executors[0].ID.Address(), refs, w.spec.ExpiryHeight)
	w.executors[0].Accept(addr, auths)

	// Tamper the local view of the spec: executor builds its enclave for
	// different params. Simulate by launching a wrong-code enclave and
	// submitting its quote manually.
	wrongParams := TrainerParams{Dim: 8, Epochs: 99, Lambda: 1e-3}
	wrongProg := NewTrainerProgram(wrongParams.Encode()).Program()
	enclave, err := w.executors[0].Platform.Launch(wrongProg)
	if err != nil {
		t.Fatal(err)
	}
	wid := WorkloadIDFor(addr)
	quote := enclave.Quote(RegistrationReport(wid, w.executors[0].ID.Address()))
	quoteRaw, _ := json.Marshal(quote)
	certs := []identity.ParticipationCert{auths[0].Cert}
	certsRaw, _ := json.Marshal(certs)
	args := contract.NewEncoder().Blob(quoteRaw).Blob(certsRaw).Bytes()
	rcpt, err := w.m.SendAndSeal(w.executors[0].ID, addr, 0, contract.CallData("registerExecution", args))
	if err != nil {
		t.Fatal(err)
	}
	if rcpt.Succeeded() {
		t.Fatal("wrong-code registration accepted")
	}
	if !strings.Contains(rcpt.Err, "measurement") {
		t.Fatalf("unexpected revert reason: %s", rcpt.Err)
	}
}

func TestForgedCertificateRejected(t *testing.T) {
	// An executor forges a certificate for a provider that never agreed.
	w := newTestWorld(t, 6, 1, 1)
	addr, _ := w.consumer.SubmitWorkload(w.spec, 10_000)
	wid := WorkloadIDFor(addr)
	exec := w.executors[0]

	mallory := identity.New("mallory", crypto.NewDRBGFromUint64(123, "mallory"))
	forged := identity.IssueCert(mallory, wid, crypto.HashString("stolen"), exec.ID.Address(), w.spec.ExpiryHeight)
	forged.Provider = w.providers[0].ID.Address() // claim it came from the real provider

	spec, _ := w.m.WorkloadSpecOf(addr)
	enclave, err := exec.enclaveFor(addr, spec)
	if err != nil {
		t.Fatal(err)
	}
	quote := enclave.Quote(RegistrationReport(wid, exec.ID.Address()))
	quoteRaw, _ := json.Marshal(quote)
	certsRaw, _ := json.Marshal([]identity.ParticipationCert{forged})
	args := contract.NewEncoder().Blob(quoteRaw).Blob(certsRaw).Bytes()
	rcpt, err := w.m.SendAndSeal(exec.ID, addr, 0, contract.CallData("registerExecution", args))
	if err != nil {
		t.Fatal(err)
	}
	if rcpt.Succeeded() {
		t.Fatal("forged certificate accepted")
	}
}

func TestCertificateCannotBeReusedAcrossExecutors(t *testing.T) {
	// Two executors try to register the same provider authorization: the
	// certificate is bound to one executor, and even a re-issued cert for
	// a second executor cannot re-register the same data.
	w := newTestWorld(t, 7, 1, 2)
	addr, _ := w.consumer.SubmitWorkload(w.spec, 10_000)
	refs, _ := w.providers[0].EligibleData(w.spec)

	auths0, _ := w.providers[0].Authorize(addr, w.executors[0].ID.Address(), refs, w.spec.ExpiryHeight)
	w.executors[0].Accept(addr, auths0)
	if err := w.executors[0].Register(addr); err != nil {
		t.Fatal(err)
	}

	// Same data authorized to executor 1: the contract rejects the
	// duplicate data contribution.
	auths1, _ := w.providers[0].Authorize(addr, w.executors[1].ID.Address(), refs, w.spec.ExpiryHeight)
	w.executors[1].Accept(addr, auths1)
	err := w.executors[1].Register(addr)
	if err == nil || !strings.Contains(err.Error(), "already contributed") {
		t.Fatalf("duplicate data registration: %v", err)
	}
}

func TestStartRequiresConditions(t *testing.T) {
	w := newTestWorld(t, 8, 3, 1)
	w.spec.MinProviders = 3
	addr, _ := w.consumer.SubmitWorkload(w.spec, 10_000)

	// Only one provider joins.
	refs, _ := w.providers[0].EligibleData(w.spec)
	auths, _ := w.providers[0].Authorize(addr, w.executors[0].ID.Address(), refs, w.spec.ExpiryHeight)
	w.executors[0].Accept(addr, auths)
	if err := w.executors[0].Register(addr); err != nil {
		t.Fatal(err)
	}
	if err := w.consumer.Start(addr); err == nil {
		t.Fatal("started below MinProviders")
	}
}

func TestCancelAfterExpiryRefunds(t *testing.T) {
	w := newTestWorld(t, 9, 1, 1)
	w.spec.ExpiryHeight = w.m.Height() + 3
	before := w.m.Chain.State().Balance(w.consumer.ID.Address())
	addr, err := w.consumer.SubmitWorkload(w.spec, 25_000)
	if err != nil {
		t.Fatal(err)
	}
	// Cancel too early fails.
	if err := w.consumer.Cancel(addr); err == nil {
		t.Fatal("cancelled before expiry")
	}
	// Advance past expiry with empty blocks.
	for w.m.Height() <= w.spec.ExpiryHeight {
		if _, err := w.m.SealBlock(); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.consumer.Cancel(addr); err != nil {
		t.Fatal(err)
	}
	st, _ := w.m.WorkloadStateOf(addr)
	if st != StateCancelled {
		t.Fatalf("state = %v", st)
	}
	if got := w.m.Chain.State().Balance(w.consumer.ID.Address()); got != before {
		t.Fatalf("refund incomplete: %d != %d", got, before)
	}
}

func TestSpecEncodeDecodeRoundTrip(t *testing.T) {
	w := newTestWorld(t, 10, 1, 1)
	raw := w.spec.Encode()
	got, err := DecodeSpec(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.Predicate != w.spec.Predicate || got.MinProviders != w.spec.MinProviders ||
		got.Measurement != w.spec.Measurement || string(got.Params) != string(w.spec.Params) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if _, err := DecodeSpec(raw[:len(raw)-3]); err == nil {
		t.Fatal("truncated spec accepted")
	}
}

func TestSpecValidation(t *testing.T) {
	w := newTestWorld(t, 11, 1, 1)
	bad := *w.spec
	bad.Predicate = ""
	if err := bad.Validate(); err == nil {
		t.Fatal("empty predicate accepted")
	}
	bad = *w.spec
	bad.MinProviders = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero providers accepted")
	}
	bad = *w.spec
	bad.ExecutorFeeBps = 10_001
	if err := bad.Validate(); err == nil {
		t.Fatal("fee > 100% accepted")
	}
	bad = *w.spec
	bad.QAPub = []byte{1}
	if err := bad.Validate(); err == nil {
		t.Fatal("bad QA key accepted")
	}
}

func TestDatasetWireRoundTrip(t *testing.T) {
	rng := crypto.NewDRBGFromUint64(12, "ds")
	d, _ := ml.GenerateClassification(ml.SyntheticConfig{N: 50, Dim: 4}, rng)
	blob := EncodeDataset(d)
	got, err := DecodeDataset(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != d.Len() || got.Dim() != d.Dim() {
		t.Fatalf("shape mismatch")
	}
	if got.Hash() != d.Hash() {
		t.Fatal("content mismatch")
	}
	if _, err := DecodeDataset(blob[:len(blob)-1]); err == nil {
		t.Fatal("truncated dataset accepted")
	}
}

func TestScoresRoundTrip(t *testing.T) {
	a := identity.New("a", crypto.NewDRBGFromUint64(1, "s")).Address()
	b := identity.New("b", crypto.NewDRBGFromUint64(2, "s")).Address()
	scores := []Score{{Provider: a, Score: 10}, {Provider: b, Score: 20}}
	got, err := DecodeScores(EncodeScores(scores))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != scores[0] || got[1] != scores[1] {
		t.Fatalf("round trip: %+v", got)
	}
}

func TestRegistryDataFirstComeFirstServed(t *testing.T) {
	w := newTestWorld(t, 13, 2, 1)
	id := crypto.HashString("contested data")
	if _, err := MustSucceed(w.m.SendAndSeal(w.providers[0].ID, w.m.Registry, 0,
		RegisterDataData(id, crypto.HashString("m")))); err != nil {
		t.Fatal(err)
	}
	rcpt, err := w.m.SendAndSeal(w.providers[1].ID, w.m.Registry, 0,
		RegisterDataData(id, crypto.HashString("m")))
	if err != nil {
		t.Fatal(err)
	}
	if rcpt.Succeeded() {
		t.Fatal("second registration of the same data accepted")
	}
	// Ownership view returns the first registrant.
	raw, err := w.m.View(identity.ZeroAddress, w.m.Registry, "dataOwner",
		contract.NewEncoder().Digest(id).Bytes())
	if err != nil {
		t.Fatal(err)
	}
	owner := contract.NewDecoder(raw).Address()
	if owner != w.providers[0].ID.Address() {
		t.Fatalf("owner = %s", owner.Short())
	}
}

func TestWorkloadsDirectory(t *testing.T) {
	w := newTestWorld(t, 14, 1, 1)
	a1, _ := w.consumer.SubmitWorkload(w.spec, 1_000)
	a2, _ := w.consumer.SubmitWorkload(w.spec, 1_000)
	list, err := w.m.Workloads()
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 || list[0] != a1 || list[1] != a2 {
		t.Fatalf("directory = %v", list)
	}
}

func TestGovernanceGasAccounting(t *testing.T) {
	// Every lifecycle transaction reports non-trivial gas, and the whole
	// lifecycle stays within sane bounds (used by experiment E2).
	w := newTestWorld(t, 15, 2, 1)
	addr, _ := w.runLifecycle(t, 10_000)
	_ = addr
	var total uint64
	h := w.m.Chain.Height()
	for i := uint64(1); i <= h; i++ {
		b, _ := w.m.Chain.BlockAt(i)
		total += b.Header.GasUsed
	}
	if total < ledger.TxBaseGas*10 {
		t.Fatalf("implausibly low lifecycle gas: %d", total)
	}
}

func TestMempoolBatchingMultipleTxPerBlock(t *testing.T) {
	w := newTestWorld(t, 16, 2, 1)
	// Two providers register data in the same block.
	tx1 := w.m.SignedTx(w.providers[0].ID, w.m.Registry, 0, RegisterDataData(crypto.HashString("d1"), crypto.ZeroDigest))
	tx2 := w.m.SignedTx(w.providers[1].ID, w.m.Registry, 0, RegisterDataData(crypto.HashString("d2"), crypto.ZeroDigest))
	if err := w.m.Submit(tx1); err != nil {
		t.Fatal(err)
	}
	if err := w.m.Submit(tx2); err != nil {
		t.Fatal(err)
	}
	block, err := w.m.SealBlock()
	if err != nil {
		t.Fatal(err)
	}
	if len(block.Txs) != 2 {
		t.Fatalf("block has %d txs", len(block.Txs))
	}
}

func TestDataDeedMintedOnRegistration(t *testing.T) {
	// §III-A: every registered dataset is deeded as an ERC-721 token
	// owned by its provider, transferable like any NFT.
	w := newTestWorld(t, 17, 2, 1)
	ref := w.refs[0][0]
	owner, err := w.m.DeedOwner(ref.ID)
	if err != nil {
		t.Fatal(err)
	}
	if owner != w.providers[0].ID.Address() {
		t.Fatalf("deed owner = %s, want provider", owner.Short())
	}
	// The deed is transferable: provider 0 sells it to provider 1.
	if _, err := MustSucceed(w.m.SendAndSeal(w.providers[0].ID, w.m.Deeds, 0,
		token.ERC721TransferFromData(w.providers[0].ID.Address(), w.providers[1].ID.Address(), ref.ID))); err != nil {
		t.Fatal(err)
	}
	owner, _ = w.m.DeedOwner(ref.ID)
	if owner != w.providers[1].ID.Address() {
		t.Fatalf("deed owner after sale = %s", owner.Short())
	}
}

func TestDeedMintBlockedForDuplicateContent(t *testing.T) {
	// Registering identical content twice fails at the registry level,
	// so only one deed ever exists per content hash.
	w := newTestWorld(t, 18, 2, 1)
	id := crypto.HashString("unique content")
	if _, err := MustSucceed(w.m.SendAndSeal(w.providers[0].ID, w.m.Registry, 0,
		RegisterDataData(id, crypto.ZeroDigest))); err != nil {
		t.Fatal(err)
	}
	rcpt, err := w.m.SendAndSeal(w.providers[1].ID, w.m.Registry, 0,
		RegisterDataData(id, crypto.ZeroDigest))
	if err != nil {
		t.Fatal(err)
	}
	if rcpt.Succeeded() {
		t.Fatal("second registration minted a second deed")
	}
	owner, _ := w.m.DeedOwner(id)
	if owner != w.providers[0].ID.Address() {
		t.Fatal("deed not held by first registrant")
	}
}

func TestSetDeedsOnlyOwnerAndOnce(t *testing.T) {
	w := newTestWorld(t, 19, 1, 1)
	// A non-owner cannot rewire the deeds contract.
	rcpt, err := w.m.SendAndSeal(w.providers[0].ID, w.m.Registry, 0,
		contract.CallData("setDeeds", contract.NewEncoder().Address(w.m.Deeds).Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if rcpt.Succeeded() {
		t.Fatal("non-owner rewired deeds")
	}
}

func TestDiscoverWorkloads(t *testing.T) {
	w := newTestWorld(t, 20, 2, 1)
	// No open workloads yet.
	disc, err := w.providers[0].DiscoverWorkloads()
	if err != nil {
		t.Fatal(err)
	}
	if len(disc) != 0 {
		t.Fatalf("phantom discoveries: %d", len(disc))
	}
	// One matching and one non-matching workload.
	addr, err := w.consumer.SubmitWorkload(w.spec, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	other := *w.spec
	other.Predicate = `category isa "gps"`
	if _, err := w.consumer.SubmitWorkload(&other, 10_000); err != nil {
		t.Fatal(err)
	}
	disc, err = w.providers[0].DiscoverWorkloads()
	if err != nil {
		t.Fatal(err)
	}
	if len(disc) != 1 || disc[0].Workload != addr {
		t.Fatalf("discoveries = %+v", disc)
	}
	if len(disc[0].Eligible) != 1 {
		t.Fatalf("eligible = %d", len(disc[0].Eligible))
	}
	// A completed workload disappears from discovery.
	w.runLifecycle(t, 10_000) // completes a third workload end to end
	disc2, _ := w.providers[0].DiscoverWorkloads()
	for _, d := range disc2 {
		st, _ := w.m.WorkloadStateOf(d.Workload)
		if st != StateOpen {
			t.Fatalf("non-open workload discovered: %v", st)
		}
	}
}

func TestRegisterExecutionAfterStartRejected(t *testing.T) {
	w := newTestWorld(t, 21, 2, 2)
	addr, _ := w.consumer.SubmitWorkload(w.spec, 10_000)
	// Both providers authorize executor 0 only; executor 1 arrives late.
	for _, p := range w.providers {
		refs, _ := p.EligibleData(w.spec)
		auths, _ := p.Authorize(addr, w.executors[0].ID.Address(), refs, w.spec.ExpiryHeight)
		w.executors[0].Accept(addr, auths)
	}
	if err := w.executors[0].Register(addr); err != nil {
		t.Fatal(err)
	}
	if err := w.consumer.Start(addr); err != nil {
		t.Fatal(err)
	}
	// Late registration attempt: re-authorize fresh (unseen) data to
	// executor 1 — the state guard must reject it anyway.
	rng := crypto.NewDRBGFromUint64(55, "late")
	extra, _ := ml.GenerateClassification(ml.SyntheticConfig{N: 50, Dim: 8}, rng)
	ref, err := w.providers[0].AddDataset(extra, semantic.Metadata{
		"category": semantic.String("sensor.temperature"),
		"samples":  semantic.Number(50),
	})
	if err != nil {
		t.Fatal(err)
	}
	auths, _ := w.providers[0].Authorize(addr, w.executors[1].ID.Address(),
		[]storage.DataRef{ref}, w.spec.ExpiryHeight)
	w.executors[1].Accept(addr, auths)
	if err := w.executors[1].Register(addr); err == nil {
		t.Fatal("late registration accepted after start")
	}
}

func TestSubmitResultByUnregisteredExecutorRejected(t *testing.T) {
	w := newTestWorld(t, 22, 2, 2)
	addr, _ := w.consumer.SubmitWorkload(w.spec, 10_000)
	for _, p := range w.providers {
		refs, _ := p.EligibleData(w.spec)
		auths, _ := p.Authorize(addr, w.executors[0].ID.Address(), refs, w.spec.ExpiryHeight)
		w.executors[0].Accept(addr, auths)
	}
	if err := w.executors[0].Register(addr); err != nil {
		t.Fatal(err)
	}
	if err := w.consumer.Start(addr); err != nil {
		t.Fatal(err)
	}
	if err := w.executors[0].TrainLocal(addr); err != nil {
		t.Fatal(err)
	}
	share, _ := w.executors[0].LocalShare(addr)
	// Executor 1 never registered; its submission must revert.
	spec, _ := w.m.WorkloadSpecOf(addr)
	if _, err := w.executors[1].enclaveFor(addr, spec); err != nil {
		t.Fatal(err)
	}
	err := w.executors[1].Aggregate(addr, [][]byte{share})
	if err == nil || !strings.Contains(err.Error(), "not a registered executor") {
		t.Fatalf("unregistered submit: %v", err)
	}
}

func TestFinalizeTwiceRejected(t *testing.T) {
	w := newTestWorld(t, 23, 2, 1)
	addr, _ := w.runLifecycle(t, 10_000)
	if err := w.consumer.Finalize(addr); err == nil {
		t.Fatal("second finalize accepted")
	}
}

func TestCancelRunningWorkloadAfterExpiry(t *testing.T) {
	// A workload that started but whose executors never delivered can be
	// cancelled after expiry, refunding the consumer.
	w := newTestWorld(t, 24, 2, 1)
	w.spec.ExpiryHeight = w.m.Height() + 30
	before := w.m.Chain.State().Balance(w.consumer.ID.Address())
	addr, _ := w.consumer.SubmitWorkload(w.spec, 20_000)
	for _, p := range w.providers {
		refs, _ := p.EligibleData(w.spec)
		auths, _ := p.Authorize(addr, w.executors[0].ID.Address(), refs, w.spec.ExpiryHeight)
		w.executors[0].Accept(addr, auths)
	}
	if err := w.executors[0].Register(addr); err != nil {
		t.Fatal(err)
	}
	if err := w.consumer.Start(addr); err != nil {
		t.Fatal(err)
	}
	for w.m.Height() <= w.spec.ExpiryHeight {
		if _, err := w.m.SealBlock(); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.consumer.Cancel(addr); err != nil {
		t.Fatal(err)
	}
	if got := w.m.Chain.State().Balance(w.consumer.ID.Address()); got != before {
		t.Fatalf("refund incomplete: %d != %d", got, before)
	}
	st, _ := w.m.WorkloadStateOf(addr)
	if st != StateCancelled {
		t.Fatalf("state = %v", st)
	}
}

func TestInEnclaveDataVerificationZeroesCheater(t *testing.T) {
	// §IV-C: the executor verifies complex requirements directly on the
	// data inside the enclave. Provider 1's metadata claims a balanced
	// sensor dataset, but the shipped data is all-negative junk; the
	// enclave's data predicate rejects it and its reward is zero.
	w := newTestWorld(t, 30, 3, 1)
	w.params.DataPredicate = `samples >= 10 and pos_fraction >= 0.1 and pos_fraction <= 0.9`
	w.spec.Measurement = TrainerMeasurement(w.params.Encode())
	w.spec.Params = w.params.Encode()

	// Replace provider 1's dataset with junk that still matches the
	// *metadata* predicate.
	junk := &ml.Dataset{}
	rng := crypto.NewDRBGFromUint64(77, "junk")
	for i := 0; i < 200; i++ {
		row := make([]float64, 8)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		junk.X = append(junk.X, row)
		junk.Y = append(junk.Y, -1) // single class: pos_fraction = 0
	}
	ref, err := w.providers[1].AddDataset(junk, semantic.Metadata{
		"category": semantic.String("sensor.temperature"),
		"samples":  semantic.Number(200),
	})
	if err != nil {
		t.Fatal(err)
	}
	w.refs[1] = []storage.DataRef{ref} // the cheater authorizes only junk

	before := map[identity.Address]uint64{}
	for _, p := range w.providers {
		before[p.ID.Address()] = w.m.Chain.State().Balance(p.ID.Address())
	}

	// Drive the lifecycle manually so provider 1 contributes the junk.
	addr, err := w.consumer.SubmitWorkload(w.spec, 90_000)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range w.providers {
		refs := w.refs[i]
		if i != 1 {
			var err error
			refs, err = p.EligibleData(w.spec)
			if err != nil {
				t.Fatal(err)
			}
		}
		auths, err := p.Authorize(addr, w.executors[0].ID.Address(), refs, w.spec.ExpiryHeight)
		if err != nil {
			t.Fatal(err)
		}
		w.executors[0].Accept(addr, auths)
	}
	if err := w.executors[0].Register(addr); err != nil {
		t.Fatal(err)
	}
	if err := w.consumer.Start(addr); err != nil {
		t.Fatal(err)
	}
	if _, err := RunWorkloadExecution(addr, w.executors[:1]); err != nil {
		t.Fatal(err)
	}
	if err := w.consumer.Finalize(addr); err != nil {
		t.Fatal(err)
	}

	cheaterGain := w.m.Chain.State().Balance(w.providers[1].ID.Address()) - before[w.providers[1].ID.Address()]
	if cheaterGain != 0 {
		t.Fatalf("cheating provider earned %d", cheaterGain)
	}
	for _, i := range []int{0, 2} {
		honest := w.m.Chain.State().Balance(w.providers[i].ID.Address()) - before[w.providers[i].ID.Address()]
		if honest == 0 {
			t.Fatalf("honest provider %d unpaid", i)
		}
	}
	// The on-chain scores record the zero.
	_, scores, err := w.m.WorkloadResultOf(addr)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range scores {
		if s.Provider == w.providers[1].ID.Address() && s.Score != 0 {
			t.Fatalf("cheater score = %d", s.Score)
		}
	}
}

func TestTrainerParamsPredicateChangesMeasurement(t *testing.T) {
	a := TrainerParams{Dim: 4, Epochs: 1, Lambda: 1e-3}
	b := a
	b.DataPredicate = `samples >= 10`
	if TrainerMeasurement(a.Encode()) == TrainerMeasurement(b.Encode()) {
		t.Fatal("predicate not covered by the measurement")
	}
	// Round trip.
	got, err := DecodeTrainerParams(b.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.DataPredicate != b.DataPredicate {
		t.Fatalf("predicate lost: %+v", got)
	}
}

func TestTrainerBadPredicateFailsExecution(t *testing.T) {
	w := newTestWorld(t, 31, 1, 1)
	w.params.DataPredicate = `samples >` // malformed
	w.spec.Measurement = TrainerMeasurement(w.params.Encode())
	w.spec.Params = w.params.Encode()

	addr, _ := w.consumer.SubmitWorkload(w.spec, 10_000)
	refs, _ := w.providers[0].EligibleData(w.spec)
	auths, _ := w.providers[0].Authorize(addr, w.executors[0].ID.Address(), refs, w.spec.ExpiryHeight)
	w.executors[0].Accept(addr, auths)
	if err := w.executors[0].Register(addr); err != nil {
		t.Fatal(err)
	}
	if err := w.consumer.Start(addr); err != nil {
		t.Fatal(err)
	}
	if err := w.executors[0].TrainLocal(addr); err == nil {
		t.Fatal("malformed predicate executed")
	}
}

// deployRewardToken deploys an ERC-20 owned by the consumer with the
// given supply.
func (w *testWorld) deployRewardToken(t *testing.T, supply uint64) identity.Address {
	t.Helper()
	rcpt, err := MustSucceed(w.m.SendAndSeal(w.consumer.ID, identity.ZeroAddress, 0,
		contract.DeployData(token.ERC20CodeName, token.ERC20InitArgs("Reward", "RWD", supply))))
	if err != nil {
		t.Fatal(err)
	}
	var addr identity.Address
	copy(addr[:], rcpt.Return)
	return addr
}

func (w *testWorld) erc20Balance(t *testing.T, tok, who identity.Address) uint64 {
	t.Helper()
	ret, err := w.m.View(who, tok, "balanceOf", token.ERC20BalanceArgs(who))
	if err != nil {
		t.Fatal(err)
	}
	v := contract.NewDecoder(ret).Uint64()
	return v
}

func TestTokenDenominatedLifecycle(t *testing.T) {
	// §III-A: ERC-20 tokens "used to handle any kind of rewards offered
	// by the consumers, which would be split among the providers".
	w := newTestWorld(t, 40, 3, 2)
	tok := w.deployRewardToken(t, 1_000_000)
	w.spec.RewardToken = tok
	w.spec.TokenBudget = 120_000

	addr, err := w.consumer.SubmitWorkload(w.spec, 0) // no native value
	if err != nil {
		t.Fatal(err)
	}
	st, _ := w.m.WorkloadStateOf(addr)
	if st != StateFunding {
		t.Fatalf("state = %v, want funding", st)
	}
	// Providers cannot join before funding completes.
	refs, _ := w.providers[0].EligibleData(w.spec)
	auths, _ := w.providers[0].Authorize(addr, w.executors[0].ID.Address(), refs, w.spec.ExpiryHeight)
	w.executors[0].Accept(addr, auths)
	if err := w.executors[0].Register(addr); err == nil {
		t.Fatal("registration accepted before funding")
	}

	if err := w.consumer.Fund(addr); err != nil {
		t.Fatal(err)
	}
	st, _ = w.m.WorkloadStateOf(addr)
	if st != StateOpen {
		t.Fatalf("state after fund = %v", st)
	}
	if got := w.erc20Balance(t, tok, addr); got != 120_000 {
		t.Fatalf("escrow balance = %d", got)
	}

	// Remaining lifecycle.
	if err := w.executors[0].Register(addr); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 3; i++ {
		refs, _ := w.providers[i].EligibleData(w.spec)
		a, _ := w.providers[i].Authorize(addr, w.executors[1].ID.Address(), refs, w.spec.ExpiryHeight)
		w.executors[1].Accept(addr, a)
	}
	if err := w.executors[1].Register(addr); err != nil {
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

	// All rewards paid in ERC-20; escrow fully drained.
	var paid uint64
	for _, p := range w.providers {
		bal := w.erc20Balance(t, tok, p.ID.Address())
		if bal == 0 {
			t.Fatalf("provider %s unpaid in tokens", p.ID.Address().Short())
		}
		paid += bal
	}
	for _, e := range w.executors {
		bal := w.erc20Balance(t, tok, e.ID.Address())
		if bal == 0 {
			t.Fatalf("executor %s unpaid in tokens", e.ID.Address().Short())
		}
		paid += bal
	}
	if paid != 120_000 {
		t.Fatalf("token payouts = %d, want 120000", paid)
	}
	if got := w.erc20Balance(t, tok, addr); got != 0 {
		t.Fatalf("escrow residue = %d", got)
	}
}

func TestTokenWorkloadFundRequiresApproval(t *testing.T) {
	w := newTestWorld(t, 41, 1, 1)
	tok := w.deployRewardToken(t, 1_000)
	w.spec.RewardToken = tok
	w.spec.TokenBudget = 500
	addr, _ := w.consumer.SubmitWorkload(w.spec, 0)

	// Direct fund call without approval reverts.
	rcpt, err := w.m.SendAndSeal(w.consumer.ID, addr, 0, contract.CallData("fund", nil))
	if err != nil {
		t.Fatal(err)
	}
	if rcpt.Succeeded() {
		t.Fatal("fund succeeded without allowance")
	}
	// Only the consumer may fund.
	rcpt, _ = w.m.SendAndSeal(w.providers[0].ID, addr, 0, contract.CallData("fund", nil))
	if rcpt.Succeeded() {
		t.Fatal("non-consumer funded the workload")
	}
}

func TestTokenWorkloadDisputeRefundsTokens(t *testing.T) {
	w := newTestWorld(t, 42, 2, 2)
	tok := w.deployRewardToken(t, 1_000_000)
	w.spec.RewardToken = tok
	w.spec.TokenBudget = 40_000
	w.executors[1].TamperResult = true

	addr, _ := w.consumer.SubmitWorkload(w.spec, 0)
	if err := w.consumer.Fund(addr); err != nil {
		t.Fatal(err)
	}
	for i, p := range w.providers {
		refs, _ := p.EligibleData(w.spec)
		a, _ := p.Authorize(addr, w.executors[i].ID.Address(), refs, w.spec.ExpiryHeight)
		w.executors[i].Accept(addr, a)
	}
	for _, e := range w.executors {
		if err := e.Register(addr); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.consumer.Start(addr); err != nil {
		t.Fatal(err)
	}
	_, _ = RunWorkloadExecution(addr, w.executors)
	st, _ := w.m.WorkloadStateOf(addr)
	if st != StateDisputed {
		t.Fatalf("state = %v", st)
	}
	if got := w.erc20Balance(t, tok, w.consumer.ID.Address()); got != 1_000_000 {
		t.Fatalf("consumer token balance after refund = %d", got)
	}
}

func TestSpecTokenValidation(t *testing.T) {
	w := newTestWorld(t, 43, 1, 1)
	bad := *w.spec
	bad.RewardToken = w.m.Deeds // any non-zero address
	bad.TokenBudget = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("token spec without budget accepted")
	}
}

func TestMedianAggregationResistsPoisoning(t *testing.T) {
	// A poisoned local model passes result-consistency (all executors
	// aggregate the same inputs), so only a robust aggregation rule
	// protects the result. Mean collapses; median survives.
	run := func(aggregation string) (WorkloadState, float64) {
		w := newTestWorld(t, 50, 3, 3)
		w.params.Aggregation = aggregation
		w.spec.Measurement = TrainerMeasurement(w.params.Encode())
		w.spec.Params = w.params.Encode()
		w.executors[2].PoisonLocal = true

		addr, _, err := RunLifecycle(w.consumer, w.spec, 30_000, w.providers, w.executors)
		if err != nil {
			t.Fatal(err)
		}
		st, _ := w.m.WorkloadStateOf(addr)
		payload, err := w.consumer.FetchResult(addr, w.executors[0])
		if err != nil {
			t.Fatal(err)
		}
		model, _, err := DecodeResultModel(payload, w.params.Lambda)
		if err != nil {
			t.Fatal(err)
		}
		return st, ml.Accuracy(model, w.test)
	}

	stMean, accMean := run("mean")
	stMedian, accMedian := run("median")
	// Both complete (hashes agree — this attack is invisible to the
	// consistency check).
	if stMean != StateComplete || stMedian != StateComplete {
		t.Fatalf("states: %v, %v", stMean, stMedian)
	}
	if accMean > 0.7 {
		t.Fatalf("mean aggregation unexpectedly survived poisoning: %v", accMean)
	}
	if accMedian < 0.85 {
		t.Fatalf("median aggregation did not resist poisoning: %v", accMedian)
	}
}

func TestAggregationModeChangesMeasurement(t *testing.T) {
	a := TrainerParams{Dim: 4, Epochs: 1, Lambda: 1e-3}
	b := a
	b.Aggregation = "median"
	if TrainerMeasurement(a.Encode()) == TrainerMeasurement(b.Encode()) {
		t.Fatal("aggregation mode not covered by measurement")
	}
	if _, err := DecodeTrainerParams(b.Encode()); err != nil {
		t.Fatal(err)
	}
	bad := a
	bad.Aggregation = "krum"
	if _, err := DecodeTrainerParams(bad.Encode()); err == nil {
		t.Fatal("unknown aggregation accepted")
	}
}

func TestFetchResultDetectsLyingExecutor(t *testing.T) {
	w := newTestWorld(t, 51, 2, 1)
	addr, _ := w.runLifecycle(t, 10_000)
	// The executor swaps the stored payload after submitting: the
	// consumer's hash check against the chain catches it.
	w.executors[0].results[addr] = []byte("not the attested result")
	if _, err := w.consumer.FetchResult(addr, w.executors[0]); err == nil {
		t.Fatal("mismatched result accepted")
	}
	// An executor with no result at all errors cleanly.
	other, err := NewExecutor(w.m, identity.New("fresh", crypto.NewDRBGFromUint64(88, "x")), w.node)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.consumer.FetchResult(addr, other); err == nil {
		t.Fatal("missing result accepted")
	}
}

func TestExecutorRegisterWithoutAuthorizations(t *testing.T) {
	w := newTestWorld(t, 52, 1, 1)
	addr, _ := w.consumer.SubmitWorkload(w.spec, 10_000)
	if err := w.executors[0].Register(addr); err == nil {
		t.Fatal("registration without authorizations accepted")
	}
	if err := w.executors[0].TrainLocal(addr); err == nil {
		t.Fatal("training without authorizations accepted")
	}
}

func TestAuthorizeRejectsForeignRefs(t *testing.T) {
	w := newTestWorld(t, 53, 2, 1)
	addr, _ := w.consumer.SubmitWorkload(w.spec, 10_000)
	// Provider 0 tries to authorize provider 1's dataset.
	foreign := w.refs[1]
	if _, err := w.providers[0].Authorize(addr, w.executors[0].ID.Address(), foreign, w.spec.ExpiryHeight); err == nil {
		t.Fatal("foreign dataset authorized")
	}
}

func TestExpiredGrantBlocksTraining(t *testing.T) {
	w := newTestWorld(t, 54, 1, 1)
	addr, _ := w.consumer.SubmitWorkload(w.spec, 10_000)
	refs, _ := w.providers[0].EligibleData(w.spec)
	// Grant expires almost immediately.
	shortExpiry := w.m.Height() + 1
	auths, err := w.providers[0].Authorize(addr, w.executors[0].ID.Address(), refs, shortExpiry)
	if err != nil {
		t.Fatal(err)
	}
	w.executors[0].Accept(addr, auths)
	// Burn blocks past the grant expiry.
	for w.m.Height() <= shortExpiry+1 {
		if _, err := w.m.SealBlock(); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.executors[0].TrainLocal(addr); err == nil {
		t.Fatal("expired grant released data")
	}
}

func TestMarketChainReplayableByAuditor(t *testing.T) {
	// §II-E trustless audit: a third party replays the exported chain
	// with the same contract code and reaches the identical state —
	// including every workload-lifecycle transition and payout.
	w := newTestWorld(t, 55, 2, 1)
	w.runLifecycle(t, 10_000)

	var buf bytes.Buffer
	if err := w.m.Chain.Export(&buf); err != nil {
		t.Fatal(err)
	}
	rt := contract.NewRuntime()
	for name, code := range map[string]contract.Contract{
		RegistryCodeName:     RegistryContract{},
		WorkloadCodeName:     WorkloadContract{},
		token.ERC20CodeName:  token.ERC20{},
		token.ERC721CodeName: token.ERC721{},
	} {
		if err := rt.RegisterCode(name, code); err != nil {
			t.Fatal(err)
		}
	}
	replayed, err := ledger.Replay(&buf, rt)
	if err != nil {
		t.Fatal(err)
	}
	if replayed.State().Root() != w.m.Chain.State().Root() {
		t.Fatal("auditor state diverges from the live chain")
	}
	if replayed.Height() != w.m.Chain.Height() {
		t.Fatal("auditor height diverges")
	}
	// The audit log is reproduced event for event.
	if len(replayed.Events("")) != len(w.m.Chain.Events("")) {
		t.Fatal("audit log diverges")
	}
}

// TestSealBlockRecoversFromGasOverflow pins the load-shedding behavior
// of sealing: when the mempool holds more executable gas than one block
// admits, SealBlock must seal a partial batch and leave the remainder
// pooled — not reject every proposal and wedge the node (the failure
// the load harness first exposed).
func TestSealBlockRecoversFromGasOverflow(t *testing.T) {
	rng := crypto.NewDRBGFromUint64(77, "seal-gas")
	const accounts = 12
	ids := make([]*identity.Identity, accounts)
	alloc := map[identity.Address]uint64{}
	for i := range ids {
		ids[i] = identity.New("acct", rng.Fork("id"))
		alloc[ids[i].Address()] = 1_000_000
	}
	// 200k gas fits nine 21k-gas transfers per block.
	m, err := New(Config{Seed: 77, GenesisAlloc: alloc, BlockGasLimit: 200_000})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		for k := 0; k < 3; k++ {
			if err := m.Submit(m.SignedTx(id, ids[0].Address(), 1, nil)); err != nil {
				t.Fatal(err)
			}
		}
	}
	total := m.Pool.Len()
	sealed := 0
	for i := 0; i < 20 && m.Pool.Len() > 0; i++ {
		b, err := m.SealBlock()
		if err != nil {
			t.Fatalf("seal %d with %d pending: %v", i, m.Pool.Len(), err)
		}
		if b.Header.GasUsed > m.Chain.GasLimit() {
			t.Fatalf("block %d used %d gas over the %d limit", b.Header.Height, b.Header.GasUsed, m.Chain.GasLimit())
		}
		sealed += len(b.Txs)
	}
	if m.Pool.Len() != 0 {
		t.Fatalf("backlog not drained: %d transactions still pending", m.Pool.Len())
	}
	if sealed != total {
		t.Fatalf("sealed %d of %d submitted transactions", sealed, total)
	}
}
