package market

import (
	"encoding/json"
	"errors"
	"fmt"

	"pds2/internal/contract"
	"pds2/internal/crypto"
	"pds2/internal/identity"
	"pds2/internal/ml"
	"pds2/internal/policy"
	"pds2/internal/semantic"
	"pds2/internal/storage"
	"pds2/internal/tee"
	"pds2/internal/telemetry"
	"pds2/internal/token"
	"pds2/internal/vm"
)

// Consumer is the data-consumer actor (Fig. 1): it prepares workload
// specifications, escrows rewards, and retrieves results.
type Consumer struct {
	ID     *identity.Identity
	Market *Market
}

// NewConsumer registers the identity as a consumer on-chain.
func NewConsumer(m *Market, id *identity.Identity) (*Consumer, error) {
	if _, err := MustSucceed(m.SendAndSeal(id, m.Registry, 0, RegisterActorData(identity.RoleConsumer))); err != nil {
		return nil, err
	}
	return &Consumer{ID: id, Market: m}, nil
}

// SubmitWorkload deploys a workload contract with the escrowed budget
// and lists it in the registry directory — the first step of Fig. 2.
// It opens the workload's root telemetry span ("workload.lifecycle"),
// which Finalize or Cancel later closes.
func (c *Consumer) SubmitWorkload(spec *Spec, budget uint64) (identity.Address, error) {
	// Bind the workload to the platform registry so the contract can
	// enforce dataset usage-control policies at admission time.
	if spec.Registry.IsZero() {
		spec.Registry = c.Market.Registry
	}
	if err := spec.Validate(); err != nil {
		return identity.ZeroAddress, err
	}
	root := telemetry.StartSpan("workload.lifecycle", telemetry.SpanContext{})
	span := telemetry.StartSpan("workload.submit", root.Context())
	timer := mStageSubmit.Time()
	abort := func(err error) (identity.Address, error) {
		span.End()
		root.End()
		return identity.ZeroAddress, err
	}
	rcpt, err := MustSucceed(c.Market.SendAndSeal(c.ID, identity.ZeroAddress, budget,
		contract.DeployData(WorkloadCodeName, spec.Encode())))
	if err != nil {
		return abort(fmt.Errorf("market: submit workload: %w", err))
	}
	var addr identity.Address
	copy(addr[:], rcpt.Return)
	if _, err := MustSucceed(c.Market.SendAndSeal(c.ID, c.Market.Registry, 0, RegisterWorkloadData(addr))); err != nil {
		return abort(fmt.Errorf("market: list workload: %w", err))
	}
	timer.Stop()
	span.End()
	root.SetAttr("workload", addr.Hex())
	c.Market.trackLifecycle(addr, root)
	mSubmitted.Inc()
	logMarket.Info("workload submitted",
		telemetry.Str("workload", addr.Hex()), telemetry.U64("budget", budget),
		telemetry.Str("consumer", c.ID.Address().Hex()))
	return addr, nil
}

// Fund escrows the ERC-20 budget of a token-denominated workload: it
// approves the workload contract for the budget and triggers the pull
// (Funding → Open).
func (c *Consumer) Fund(workload identity.Address) error {
	spec, err := c.Market.WorkloadSpecOf(workload)
	if err != nil {
		return err
	}
	if spec.RewardToken.IsZero() {
		return errors.New("market: workload is native-denominated; nothing to fund")
	}
	if _, err := MustSucceed(c.Market.SendAndSeal(c.ID, spec.RewardToken, 0,
		token.ERC20ApproveData(workload, spec.TokenBudget))); err != nil {
		return fmt.Errorf("market: approve budget: %w", err)
	}
	if _, err := MustSucceed(c.Market.SendAndSeal(c.ID, workload, 0,
		contract.CallData("fund", nil))); err != nil {
		return fmt.Errorf("market: fund: %w", err)
	}
	return nil
}

// Start asks the governance layer to begin execution once conditions
// are met.
func (c *Consumer) Start(workload identity.Address) error {
	_, err := MustSucceed(c.Market.SendAndSeal(c.ID, workload, 0, contract.CallData("start", nil)))
	return err
}

// Finalize triggers reward distribution — the settle stage of Fig. 2.
// It closes the workload's lifecycle span.
func (c *Consumer) Finalize(workload identity.Address) error {
	span := telemetry.StartSpan("workload.settle", c.Market.lifecycleCtx(workload))
	timer := mStageSettle.Time()
	_, err := MustSucceed(c.Market.SendAndSeal(c.ID, workload, 0, contract.CallData("finalize", nil)))
	timer.Stop()
	span.End()
	if err == nil {
		mFinalized.Inc()
		logMarket.Info("workload settled", telemetry.Str("workload", workload.Hex()))
	} else {
		logMarket.Error("workload settlement failed",
			telemetry.Str("workload", workload.Hex()), telemetry.Err(err))
	}
	c.Market.endLifecycle(workload)
	return err
}

// Cancel reclaims the escrow after expiry. It closes the workload's
// lifecycle span.
func (c *Consumer) Cancel(workload identity.Address) error {
	span := telemetry.StartSpan("workload.cancel", c.Market.lifecycleCtx(workload))
	_, err := MustSucceed(c.Market.SendAndSeal(c.ID, workload, 0, contract.CallData("cancel", nil)))
	span.End()
	c.Market.endLifecycle(workload)
	return err
}

// FetchResult retrieves the result payload from an executor and checks
// it against the on-chain accepted hash, so a lying executor cannot hand
// the consumer a different artifact than the attested one.
func (c *Consumer) FetchResult(workload identity.Address, from *Executor) ([]byte, error) {
	payload, ok := from.results[workload]
	if !ok {
		return nil, errors.New("market: executor has no result for this workload")
	}
	onChain, _, err := c.Market.WorkloadResultOf(workload)
	if err != nil {
		return nil, err
	}
	if ResultHash(payload) != onChain {
		return nil, errors.New("market: executor result does not match on-chain hash")
	}
	return payload, nil
}

// Provider is the data-provider actor: it owns a vault of encrypted
// datasets, registers them on-chain, discovers eligible workloads and
// authorizes executors with certificates and grants.
type Provider struct {
	ID     *identity.Identity
	Market *Market
	Vault  *storage.Vault
	Node   *storage.Node // where the provider hosts its ciphertexts
}

// NewProvider registers the identity as a provider and wires its vault
// to the given storage node (Fig. 3: the node may be the provider's own
// hardware or a third-party service).
func NewProvider(m *Market, id *identity.Identity, node *storage.Node) (*Provider, error) {
	if _, err := MustSucceed(m.SendAndSeal(id, m.Registry, 0, RegisterActorData(identity.RoleProvider))); err != nil {
		return nil, err
	}
	return &Provider{
		ID:     id,
		Market: m,
		Vault:  storage.NewVault(id, storage.NewMemStore(), m.Rng().Fork("vault-"+id.Address().Hex())),
		Node:   node,
	}, nil
}

// AddDataset encrypts the dataset into the vault, hosts the ciphertext
// on the storage node and registers the content hash on-chain.
func (p *Provider) AddDataset(ds *ml.Dataset, meta semantic.Metadata) (storage.DataRef, error) {
	blob := EncodeDataset(ds)
	ref, err := p.Vault.Store(blob, meta)
	if err != nil {
		return storage.DataRef{}, err
	}
	if err := p.Node.HostFromVault(p.Vault, ref.ID); err != nil {
		return storage.DataRef{}, err
	}
	metaHash := crypto.HashString(fmt.Sprintf("%v", meta))
	if _, err := MustSucceed(p.Market.SendAndSeal(p.ID, p.Market.Registry, 0,
		RegisterDataData(ref.ID, metaHash))); err != nil {
		return storage.DataRef{}, err
	}
	return ref, nil
}

// SetPolicy attaches (or replaces) the usage-control policy of one of
// this provider's registered datasets. Only the registering owner may
// call this; the registry emits a PolicySet event carrying the full
// policy blob so auditors can replay every later decision offline.
func (p *Provider) SetPolicy(dataID crypto.Digest, pol *policy.Policy) error {
	_, err := MustSucceed(p.Market.SendAndSeal(p.ID, p.Market.Registry, 0, SetPolicyData(dataID, pol)))
	return err
}

// DeployPolicy compiles a policy program and binds its bytecode to one
// of this provider's registered datasets. Deployed code takes
// precedence over a declarative policy; the registry emits a
// PolicyCodeDeployed event carrying the full artifact — which embeds
// the source — so auditors can re-verify and re-execute it offline.
func (p *Provider) DeployPolicy(dataID crypto.Digest, source string) error {
	artifact, err := vm.BuildSource(source)
	if err != nil {
		return fmt.Errorf("market: deploy policy: %w", err)
	}
	_, err = MustSucceed(p.Market.SendAndSeal(p.ID, p.Market.Registry, 0, DeployPolicyData(dataID, artifact)))
	return err
}

// EligibleData evaluates a workload's predicate against the vault —
// the storage-subsystem notification step of Fig. 2.
func (p *Provider) EligibleData(spec *Spec) ([]storage.DataRef, error) {
	pred, err := semantic.Parse(spec.Predicate)
	if err != nil {
		return nil, fmt.Errorf("market: workload predicate: %w", err)
	}
	return p.Vault.Match(pred), nil
}

// Discovery is one workload a provider's storage subsystem matched
// against its vault: the Fig. 2 "notify provider of eligible workload"
// step.
type Discovery struct {
	Workload identity.Address
	Spec     *Spec
	Eligible []storage.DataRef
}

// DiscoverWorkloads scans the registry's on-chain directory for open
// workloads for which this provider holds eligible data. In a live
// deployment the storage subsystem would subscribe to
// WorkloadRegistered events; scanning the audit log is equivalent and
// keeps the simulation synchronous.
func (p *Provider) DiscoverWorkloads() ([]Discovery, error) {
	addrs, err := p.Market.Workloads()
	if err != nil {
		return nil, err
	}
	var out []Discovery
	for _, addr := range addrs {
		st, err := p.Market.WorkloadStateOf(addr)
		if err != nil || st != StateOpen {
			continue
		}
		spec, err := p.Market.WorkloadSpecOf(addr)
		if err != nil {
			continue
		}
		if p.Market.Height() > spec.ExpiryHeight {
			continue
		}
		refs, err := p.EligibleData(spec)
		if err != nil || len(refs) == 0 {
			continue
		}
		out = append(out, Discovery{Workload: addr, Spec: spec, Eligible: refs})
	}
	return out, nil
}

// Authorization bundles a participation certificate with the matching
// storage grant — everything an executor needs to obtain and prove
// access to one dataset for one workload.
type Authorization struct {
	Cert  identity.ParticipationCert
	Grant storage.Grant
}

// Authorize produces the certificate and grant handing the given
// datasets to an executor for a workload (the provider opt-in of
// Fig. 2).
func (p *Provider) Authorize(workload identity.Address, executor identity.Address, refs []storage.DataRef, expiry uint64) ([]Authorization, error) {
	wid := WorkloadIDFor(workload)
	// Match-layer usage control: before any certificate is issued, every
	// dataset's policy is enforced against the workload's guaranteed
	// aggregation floor (spec.MinItems — the smallest set the workload
	// may start with).
	if len(refs) > 0 {
		spec, err := p.Market.WorkloadSpecOf(workload)
		if err != nil {
			return nil, err
		}
		ids := make([]crypto.Digest, len(refs))
		for i, ref := range refs {
			ids[i] = ref.ID
		}
		if err := p.Market.enforce(p.ID, policy.LayerMatch, workload, spec, spec.MinItems, ids); err != nil {
			return nil, err
		}
	}
	out := make([]Authorization, 0, len(refs))
	for _, ref := range refs {
		if ref.Owner != p.ID.Address() {
			return nil, fmt.Errorf("market: ref %s is not owned by this provider", ref.ID.Short())
		}
		grant, err := p.Vault.Grant(ref.ID, wid, executor, expiry)
		if err != nil {
			return nil, err
		}
		out = append(out, Authorization{
			Cert:  identity.IssueCert(p.ID, wid, ref.ID, executor, expiry),
			Grant: grant,
		})
	}
	return out, nil
}

// Executor is the executor actor: it owns TEE hardware, collects
// provider authorizations, registers its participation on-chain with an
// attestation quote, runs the workload inside its enclave and submits
// the attested result.
type Executor struct {
	ID       *identity.Identity
	Market   *Market
	Platform *tee.Platform
	Node     *storage.Node // storage node to fetch ciphertexts from

	assignments map[identity.Address][]Authorization
	locals      map[identity.Address][]byte // train-phase output per workload
	results     map[identity.Address][]byte // final result payloads
	enclaves    map[identity.Address]*tee.Enclave

	// TamperResult, when set, makes the executor corrupt its final
	// aggregation output before submitting — the E14 fault-injection
	// hook. The governance layer detects the divergence from the other
	// executors' attested results and marks the workload disputed.
	TamperResult bool

	// PoisonLocal, when set, makes the executor corrupt its *local*
	// training output before the share exchange (sign-flipped, blown-up
	// weights). Unlike TamperResult this attack is invisible to the
	// result-consistency check — every executor aggregates the same
	// poisoned inputs — and is defeated only by a robust aggregation
	// rule (TrainerParams.Aggregation = "median", ablation A4).
	PoisonLocal bool
}

// NewExecutor provisions a TEE platform for the identity and registers
// the executor role on-chain.
func NewExecutor(m *Market, id *identity.Identity, node *storage.Node) (*Executor, error) {
	if _, err := MustSucceed(m.SendAndSeal(id, m.Registry, 0, RegisterActorData(identity.RoleExecutor))); err != nil {
		return nil, err
	}
	return &Executor{
		ID:          id,
		Market:      m,
		Platform:    tee.NewPlatform(m.QA, tee.DefaultCostModel(), m.Rng().Fork("platform-"+id.Address().Hex())),
		Node:        node,
		assignments: make(map[identity.Address][]Authorization),
		locals:      make(map[identity.Address][]byte),
		results:     make(map[identity.Address][]byte),
		enclaves:    make(map[identity.Address]*tee.Enclave),
	}, nil
}

// Accept receives authorizations from a provider.
func (e *Executor) Accept(workload identity.Address, auths []Authorization) {
	e.assignments[workload] = append(e.assignments[workload], auths...)
}

// enclaveFor launches (once) the enclave running the workload's pinned
// program.
func (e *Executor) enclaveFor(workload identity.Address, spec *Spec) (*tee.Enclave, error) {
	if enc, ok := e.enclaves[workload]; ok {
		return enc, nil
	}
	prog := NewTrainerProgram(spec.Params).Program()
	if prog.Measure() != spec.Measurement {
		return nil, errors.New("market: local trainer does not match the spec measurement")
	}
	enc, err := e.Platform.Launch(prog)
	if err != nil {
		return nil, err
	}
	// Enclave-layer usage control: the guard re-enforces every granted
	// dataset's policy on-chain before any call may touch plaintext.
	enc.SetGuard(e.policyGuard(workload, spec))
	e.enclaves[workload] = enc
	return enc, nil
}

// policyGuard builds the tee.Guard for a workload's enclave — the third
// and innermost usage-control enforcement layer. On every train-mode
// call it enforces the policies of the exact dataset batch about to be
// computed on (aggregation = the batch size this enclave sees, which can
// be smaller than the workload total), logging the decisions on-chain;
// a denial aborts the call before the program runs. Aggregate-mode calls
// carry model shares, not raw datasets, and pass through.
func (e *Executor) policyGuard(workload identity.Address, spec *Spec) tee.Guard {
	return func(input []byte, _ int64) error {
		if contract.NewDecoder(input).String() != "train" {
			return nil
		}
		auths := e.assignments[workload]
		ids := make([]crypto.Digest, 0, len(auths))
		seen := make(map[crypto.Digest]bool, len(auths))
		for _, a := range auths {
			if !seen[a.Grant.DataID] {
				seen[a.Grant.DataID] = true
				ids = append(ids, a.Grant.DataID)
			}
		}
		return e.Market.enforce(e.ID, policy.LayerEnclave, workload, spec, uint64(len(auths)), ids)
	}
}

// Register submits the executor's participation to the workload
// contract: an attestation quote for the pinned program plus the
// collected certificates (Fig. 2's "register participation" step).
func (e *Executor) Register(workload identity.Address) error {
	auths := e.assignments[workload]
	if len(auths) == 0 {
		return errors.New("market: no authorizations collected for this workload")
	}
	span := telemetry.StartSpan("workload.match", e.Market.lifecycleCtx(workload))
	span.SetAttr("executor", e.ID.Address().Hex())
	defer span.End()
	timer := mStageMatch.Time()
	defer timer.Stop()
	spec, err := e.Market.WorkloadSpecOf(workload)
	if err != nil {
		return err
	}
	enclave, err := e.enclaveFor(workload, spec)
	if err != nil {
		return err
	}
	wid := WorkloadIDFor(workload)
	quote := enclave.Quote(RegistrationReport(wid, e.ID.Address()))
	quoteRaw, err := json.Marshal(quote)
	if err != nil {
		return err
	}
	certs := make([]identity.ParticipationCert, len(auths))
	for i, a := range auths {
		certs[i] = a.Cert
	}
	certsRaw, err := json.Marshal(certs)
	if err != nil {
		return err
	}
	args := contract.NewEncoder().Blob(quoteRaw).Blob(certsRaw).Bytes()
	rcpt, err := MustSucceed(e.Market.SendAndSeal(e.ID, workload, 0,
		contract.CallData("registerExecution", args)))
	if err == nil && len(rcpt.Return) > 0 {
		// Admission-layer policy denial: the transaction succeeds (the
		// deny decisions are chain events) but registration was refused
		// and the contract returned the decision batch.
		recs, decErr := policy.DecodeDecisionRecords(rcpt.Return)
		if decErr != nil {
			err = fmt.Errorf("market: register execution: %w", decErr)
		} else {
			err = denialFromRecords(recs)
		}
	}
	if err != nil {
		logMarket.Warn("executor registration rejected",
			telemetry.Str("workload", workload.Hex()),
			telemetry.Str("executor", e.ID.Address().Hex()), telemetry.Err(err))
		return err
	}
	logMarket.Info("executor matched to workload",
		telemetry.Str("workload", workload.Hex()),
		telemetry.Str("executor", e.ID.Address().Hex()),
		telemetry.Int("certs", len(certs)))
	return nil
}

// TrainLocal fetches every granted dataset from the storage node, opens
// it inside the executor's trust domain and runs the training phase in
// the enclave, producing the local model share.
func (e *Executor) TrainLocal(workload identity.Address) error {
	auths := e.assignments[workload]
	if len(auths) == 0 {
		return errors.New("market: nothing to train on")
	}
	spec, err := e.Market.WorkloadSpecOf(workload)
	if err != nil {
		return err
	}
	enclave, err := e.enclaveFor(workload, spec)
	if err != nil {
		return err
	}
	wid := WorkloadIDFor(workload)
	height := e.Market.Height()
	enc := contract.NewEncoder().String("train").Uint64(uint64(len(auths)))
	var totalBytes int64
	for _, a := range auths {
		ct, err := e.Node.Release(&a.Grant, e.ID.Address(), wid, height)
		if err != nil {
			return fmt.Errorf("market: fetch data %s: %w", a.Grant.DataID.Short(), err)
		}
		pt, err := a.Grant.Open(ct)
		if err != nil {
			return fmt.Errorf("market: open data %s: %w", a.Grant.DataID.Short(), err)
		}
		totalBytes += int64(len(pt))
		enc.Address(a.Cert.Provider).Blob(pt)
	}
	res, err := enclave.Call(enc.Bytes(), totalBytes)
	if err != nil {
		return err
	}
	out := res.Output
	if e.PoisonLocal {
		if out, err = poisonTrainOutput(out, spec); err != nil {
			return err
		}
	}
	e.locals[workload] = out
	return nil
}

// poisonTrainOutput rewrites a train-phase output with a sign-flipped,
// 1e6-scaled model: structurally valid, numerically hostile.
func poisonTrainOutput(raw []byte, spec *Spec) ([]byte, error) {
	params, err := DecodeTrainerParams(spec.Params)
	if err != nil {
		return nil, err
	}
	d := contract.NewDecoder(raw)
	model, err := readModel(d, params.Lambda)
	if err != nil {
		return nil, err
	}
	for i := range model.W {
		model.W[i] *= -1e6
	}
	model.Bias *= -1e6
	rest := raw[len(raw)-d.Remaining():]
	return append(contract.NewEncoder().Blob(encodeLinearModel(model)).Bytes(), rest...), nil
}

// LocalShare returns the executor's train-phase output for exchange
// with peer executors.
func (e *Executor) LocalShare(workload identity.Address) ([]byte, error) {
	out, ok := e.locals[workload]
	if !ok {
		return nil, errors.New("market: local training has not run")
	}
	return out, nil
}

// Aggregate merges all executors' local shares inside the enclave
// (identically on every executor), stores the final result payload and
// submits the attested result hash and contribution scores on-chain.
func (e *Executor) Aggregate(workload identity.Address, shares [][]byte) error {
	spec, err := e.Market.WorkloadSpecOf(workload)
	if err != nil {
		return err
	}
	enclave, err := e.enclaveFor(workload, spec)
	if err != nil {
		return err
	}
	order, err := e.providerOrder(workload)
	if err != nil {
		return err
	}
	enc := contract.NewEncoder().String("aggregate").Uint64(uint64(len(shares)))
	var ws int64
	for _, s := range shares {
		enc.Blob(s)
		ws += int64(len(s))
	}
	enc.Uint64(uint64(len(order)))
	for _, p := range order {
		enc.Address(p)
	}
	res, err := enclave.Call(enc.Bytes(), ws)
	if err != nil {
		return err
	}
	payload := res.Output
	if e.TamperResult {
		// Corrupt the final model blob: flip one byte in the middle. The
		// payload stays structurally valid; only the governance layer's
		// cross-executor consistency check can catch the fraud.
		payload = append([]byte(nil), payload...)
		payload[len(payload)/2] ^= 0xff
	}
	e.results[workload] = payload

	d := contract.NewDecoder(payload)
	d.Blob() // the model
	scoresRaw := d.Blob()
	if err := d.Err(); err != nil {
		return err
	}
	resultHash := ResultHash(payload)
	wid := WorkloadIDFor(workload)
	quote := enclave.Quote(ResultReport(wid, resultHash, crypto.HashBytes(scoresRaw)))
	quoteRaw, err := json.Marshal(quote)
	if err != nil {
		return err
	}
	args := contract.NewEncoder().Digest(resultHash).Blob(scoresRaw).Blob(quoteRaw).Bytes()
	_, err = MustSucceed(e.Market.SendAndSeal(e.ID, workload, 0,
		contract.CallData("submitResult", args)))
	return err
}

// providerOrder reads the contract's provider registration order, the
// order in which contribution scores must be submitted.
func (e *Executor) providerOrder(workload identity.Address) ([]identity.Address, error) {
	raw, err := e.Market.View(e.ID.Address(), workload, "progress", nil)
	if err != nil {
		return nil, err
	}
	d := contract.NewDecoder(raw)
	pc := d.Uint64()
	if err := d.Err(); err != nil {
		return nil, err
	}
	return e.Market.viewAddresses(e.ID.Address(), workload, "providerAt", pc)
}

// RunWorkloadExecution drives the execution phase across a set of
// registered executors: local training, share exchange, and identical
// in-enclave aggregation on every executor (the peer-to-peer result
// computation of Fig. 2). It returns the first executor's result
// payload.
func RunWorkloadExecution(workload identity.Address, executors []*Executor) ([]byte, error) {
	if len(executors) == 0 {
		return nil, errors.New("market: no executors")
	}
	span := telemetry.StartSpan("workload.execute", executors[0].Market.lifecycleCtx(workload))
	defer span.End()
	timer := mStageExecute.Time()
	defer timer.Stop()
	for _, e := range executors {
		train := telemetry.StartSpan("executor.train", span.Context())
		train.SetAttr("executor", e.ID.Address().Hex())
		err := e.TrainLocal(workload)
		ExecutorHeartbeat.Beat()
		train.End()
		if err != nil {
			return nil, fmt.Errorf("market: executor %s train: %w", e.ID.Address().Short(), err)
		}
	}
	shares := make([][]byte, 0, len(executors))
	for _, e := range executors {
		s, err := e.LocalShare(workload)
		if err != nil {
			return nil, err
		}
		shares = append(shares, s)
	}
	for _, e := range executors {
		agg := telemetry.StartSpan("executor.aggregate", span.Context())
		agg.SetAttr("executor", e.ID.Address().Hex())
		err := e.Aggregate(workload, shares)
		ExecutorHeartbeat.Beat()
		agg.End()
		if err != nil {
			return nil, fmt.Errorf("market: executor %s aggregate: %w", e.ID.Address().Short(), err)
		}
	}
	return executors[0].results[workload], nil
}

// RunLifecycle drives one workload through the whole Fig. 2 sequence:
// submit; provider i checks eligibility and authorizes
// executors[i%len(executors)]; every executor holding authorizations
// registers (the others take no part); start; RunWorkloadExecution over
// the registered executors; finalize. It returns the workload address
// (also on an error after submission) and the first registered
// executor's result payload.
func RunLifecycle(consumer *Consumer, spec *Spec, budget uint64, providers []*Provider, executors []*Executor) (identity.Address, []byte, error) {
	workload, err := consumer.SubmitWorkload(spec, budget)
	if err != nil {
		return identity.ZeroAddress, nil, err
	}
	for i, p := range providers {
		refs, err := p.EligibleData(spec)
		if err != nil {
			return workload, nil, err
		}
		exec := executors[i%len(executors)]
		auths, err := p.Authorize(workload, exec.ID.Address(), refs, spec.ExpiryHeight)
		if err != nil {
			return workload, nil, err
		}
		exec.Accept(workload, auths)
	}
	active := make([]*Executor, 0, len(executors))
	for _, e := range executors {
		if len(e.assignments[workload]) == 0 {
			continue
		}
		if err := e.Register(workload); err != nil {
			return workload, nil, err
		}
		active = append(active, e)
	}
	if err := consumer.Start(workload); err != nil {
		return workload, nil, err
	}
	payload, err := RunWorkloadExecution(workload, active)
	if err != nil {
		return workload, nil, err
	}
	if err := consumer.Finalize(workload); err != nil {
		return workload, nil, err
	}
	return workload, payload, nil
}
