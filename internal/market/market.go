package market

import (
	"errors"
	"fmt"
	"strconv"

	"pds2/internal/chainstore"
	"pds2/internal/contract"
	"pds2/internal/crypto"
	"pds2/internal/identity"
	"pds2/internal/ledger"
	"pds2/internal/tee"
	"pds2/internal/telemetry"
	"pds2/internal/token"
)

// Market instrumentation: the Fig. 2 lifecycle stage durations
// (submit → match → execute → settle) plus transaction round-trip time
// through the convenience path. The matching spans live on the tracer;
// see Market.trackLifecycle.
var (
	mStageSubmit  = telemetry.H("market.stage.submit_seconds", telemetry.TimeBuckets)
	mStageMatch   = telemetry.H("market.stage.match_seconds", telemetry.TimeBuckets)
	mStageExecute = telemetry.H("market.stage.execute_seconds", telemetry.TimeBuckets)
	mStageSettle  = telemetry.H("market.stage.settle_seconds", telemetry.TimeBuckets)
	mSendSeal     = telemetry.H("market.tx.sendseal_seconds", telemetry.TimeBuckets)
	mSubmitted    = telemetry.C("market.workloads.submitted_total")
	mFinalized    = telemetry.C("market.workloads.finalized_total")
	mPolicyDenied = telemetry.C("market.policy.denials_total")
	logMarket     = telemetry.L("market")
)

// ExecutorHeartbeat is the liveness signal for the execution path: it
// beats whenever an executor trains or aggregates, and the API server's
// "market.executors" health check degrades when it goes stale.
var ExecutorHeartbeat = telemetry.NewHeartbeat(0)

// Config parameterizes a Market instance.
type Config struct {
	// Seed drives all deterministic randomness (keys, nonces).
	Seed uint64

	// GenesisAlloc funds accounts at genesis, in native tokens. The
	// market keeps the map: it funds any unfunded authority in it, and
	// the chain's genesis configuration (exports, snapshots) refers to
	// it for the chain's whole life, so the caller must not modify it
	// afterwards.
	GenesisAlloc map[identity.Address]uint64

	// Authorities optionally overrides the PoA validator set; by default
	// the market creates a single governor authority.
	Authorities []*identity.Identity

	// MempoolSize bounds the pending-transaction pool; <= 0 selects
	// ledger.DefaultMempoolSize.
	MempoolSize int

	// BlockGasLimit overrides the chain's per-block gas budget; 0
	// selects ledger.DefaultBlockGasLimit. Load rigs raise it so
	// block packing, not an artificial gas ceiling, bounds throughput.
	BlockGasLimit uint64
}

// Accounts derives the deterministic load-test population: the same
// seed and count always yield the same identities, so the node funding
// them at genesis (pds2-node -load-accounts) and the generator signing
// with them (pds2-load) agree without exchanging keys.
func Accounts(seed uint64, n int) []*identity.Identity {
	rng := crypto.NewDRBGFromUint64(seed, "loadgen/accounts")
	ids := make([]*identity.Identity, n)
	for i := range ids {
		ids[i] = identity.New("load-"+strconv.Itoa(i), rng)
	}
	return ids
}

// GenesisAlloc builds a Config.GenesisAlloc funding Accounts(seed, n)
// with amount native tokens each.
func GenesisAlloc(seed uint64, n int, amount uint64) map[identity.Address]uint64 {
	alloc := make(map[identity.Address]uint64, n)
	for _, id := range Accounts(seed, n) {
		alloc[id.Address()] = amount
	}
	return alloc
}

// Market is one deployment of the PDS² governance layer: a
// proof-of-authority chain running the contract runtime with the
// registry, workload, and token contracts registered, plus the quoting
// authority that anchors executor attestation.
type Market struct {
	Chain   *ledger.Chain
	Runtime *contract.Runtime
	Pool    *ledger.Mempool
	QA      *tee.QuotingAuthority

	// Registry is the address of the deployed registry contract.
	Registry identity.Address

	// Deeds is the ERC-721 contract deeding registered datasets
	// (§III-A: NFTs for "indivisible, unique assets"). The registry
	// holds its minter role and mints a deed per data registration.
	Deeds identity.Address

	authorities []*identity.Identity
	rng         *crypto.DRBG
	timestamp   uint64

	// store, when non-nil, is the durable chain store every sealed or
	// imported block lands in (wired by Open).
	store *chainstore.Store

	// lifecycles holds the open root telemetry span per workload, so
	// every stage (submit, match, execute, settle) parents under one
	// "workload.lifecycle" span. Entries are nil while telemetry is
	// disabled and are removed when the lifecycle settles.
	lifecycles map[identity.Address]*telemetry.ActiveSpan

	// DefaultGasLimit is attached to transactions sent through helpers.
	DefaultGasLimit uint64
}

// New builds a market: chain, runtime, quoting authority and a deployed
// registry contract owned by the first authority.
func New(cfg Config) (*Market, error) {
	rng := crypto.NewDRBGFromUint64(cfg.Seed, "market")
	rt, err := NewRuntime()
	if err != nil {
		return nil, err
	}
	authorities := cfg.Authorities
	if len(authorities) == 0 {
		authorities = []*identity.Identity{identity.New("governor", rng.Fork("governor"))}
	}
	addrs := make([]identity.Address, len(authorities))
	alloc := cfg.GenesisAlloc
	if alloc == nil {
		alloc = make(map[identity.Address]uint64, len(authorities))
	}
	for i, auth := range authorities {
		addrs[i] = auth.Address()
		if alloc[auth.Address()] == 0 {
			alloc[auth.Address()] = 1_000_000 // gas-free chain; funds for deploys
		}
	}
	chain, err := ledger.NewChain(ledger.ChainConfig{
		Authorities:   addrs,
		BlockGasLimit: cfg.BlockGasLimit,
		Applier:       rt,
		GenesisAlloc:  alloc,
	})
	if err != nil {
		return nil, err
	}
	m := &Market{
		Chain:           chain,
		Runtime:         rt,
		Pool:            ledger.NewMempool(cfg.MempoolSize),
		QA:              tee.NewQuotingAuthority(rng.Fork("qa")),
		authorities:     authorities,
		rng:             rng,
		DefaultGasLimit: 40_000_000,
		lifecycles:      make(map[identity.Address]*telemetry.ActiveSpan),
	}
	// Deploy the registry.
	rcpt, err := m.SendAndSeal(authorities[0], identity.ZeroAddress, 0, contract.DeployData(RegistryCodeName, nil))
	if err != nil {
		return nil, fmt.Errorf("market: deploy registry: %w", err)
	}
	if !rcpt.Succeeded() {
		return nil, fmt.Errorf("market: deploy registry: %s", rcpt.Err)
	}
	copy(m.Registry[:], rcpt.Return)

	// Deploy the data-deeds NFT, hand its minter role to the registry,
	// and wire the registry to mint a deed per dataset registration.
	rcpt, err = MustSucceed(m.SendAndSeal(authorities[0], identity.ZeroAddress, 0,
		contract.DeployData(token.ERC721CodeName, token.ERC721InitArgs("PDS2 Data Deeds"))))
	if err != nil {
		return nil, fmt.Errorf("market: deploy deeds: %w", err)
	}
	copy(m.Deeds[:], rcpt.Return)
	if _, err := MustSucceed(m.SendAndSeal(authorities[0], m.Deeds,
		0, token.ERC721TransferMinterData(m.Registry))); err != nil {
		return nil, fmt.Errorf("market: transfer deed minter: %w", err)
	}
	if _, err := MustSucceed(m.SendAndSeal(authorities[0], m.Registry, 0,
		contract.CallData("setDeeds", contract.NewEncoder().Address(m.Deeds).Bytes()))); err != nil {
		return nil, fmt.Errorf("market: wire deeds: %w", err)
	}
	return m, nil
}

// Rng returns the market's deterministic randomness source.
func (m *Market) Rng() *crypto.DRBG { return m.rng }

// Height returns the current chain height.
func (m *Market) Height() uint64 { return m.Chain.Height() }

// Submit adds a signed transaction to the mempool. When the pool is
// full it prunes transactions made stale by chain progress and retries
// once, so a pool clogged with already-executed entries never locks out
// live traffic. Because Prune reads chain state, Submit must be
// serialized against sealing like every other Market method; admission
// paths that cannot take that lock can call Pool.Add directly (the
// mempool itself is safe for concurrent use) and fall back to Submit
// only on ErrMempoolFull.
func (m *Market) Submit(tx *ledger.Transaction) error {
	err := m.Pool.Add(tx)
	if errors.Is(err, ledger.ErrMempoolFull) && m.Pool.Prune(m.Chain.State()) > 0 {
		err = m.Pool.Add(tx)
	}
	return err
}

// SealBlock packages the executable mempool transactions into the next
// block, signed by the rotating authority.
func (m *Market) SealBlock() (*ledger.Block, error) {
	return m.SealBlockAt(m.timestamp + 1)
}

// SealBlockAt is SealBlock with an explicit logical timestamp — the
// entry point for sealers whose clock may be skewed (fault-injection
// chaos runs, multi-authority deployments with drifting clocks). The
// chain enforces timestamp monotonicity, so a seal behind the parent's
// timestamp fails without consuming the batch; a seal ahead succeeds
// and advances the market's logical clock to the given value.
func (m *Market) SealBlockAt(timestamp uint64) (block *ledger.Block, err error) {
	// market.seal attributes batch building and mempool drain; the chain
	// re-labels execution ledger.seal inside ProposeBlock, so a profile
	// splits "picking transactions" from "executing them".
	telemetry.WithComponent("market.seal", func() { block, err = m.sealBlockAt(timestamp) })
	return block, err
}

func (m *Market) sealBlockAt(timestamp uint64) (*ledger.Block, error) {
	height := m.Chain.Height() + 1
	proposer := m.authorities[(height-1)%uint64(len(m.authorities))]
	for {
		// The pool bounds the candidates by intrinsic gas; the chain seals
		// the longest prefix that really fits and says so in block.Txs. The
		// remainder stays pooled for the next seal.
		batch := m.Pool.NextBatch(m.Chain.State(), 10_000, m.Chain.GasLimit())
		block, err := m.Chain.ProposeFromPool(m.Pool, proposer, timestamp, batch)
		if errors.Is(err, ledger.ErrBlockGasLimit) && m.Pool.EvictOvergas(batch[0]) {
			// The first candidate does not fit an empty block, so it fits no
			// block: left pooled it would head every future batch and fail
			// the same way. Each pass drops one transaction, so the rebuild
			// terminates.
			continue
		}
		if err != nil {
			return nil, err
		}
		if timestamp > m.timestamp {
			m.timestamp = timestamp
		}
		m.Pool.Remove(block.Txs)
		return block, nil
	}
}

// Timestamp returns the market's current logical clock (the timestamp
// of the last sealed block).
func (m *Market) Timestamp() uint64 { return m.timestamp }

// SignedTx builds a signed transaction from the identity using its
// current on-chain nonce plus its pending mempool transactions.
func (m *Market) SignedTx(from *identity.Identity, to identity.Address, value uint64, data []byte) *ledger.Transaction {
	nonce := m.Pool.NextNonce(from.Address(), m.Chain.State().Nonce(from.Address()))
	return ledger.SignTx(from, to, value, nonce, m.DefaultGasLimit, data)
}

// trackLifecycle registers the open root span for a workload. A nil
// span (telemetry disabled) is ignored.
func (m *Market) trackLifecycle(w identity.Address, sp *telemetry.ActiveSpan) {
	if sp == nil {
		return
	}
	m.lifecycles[w] = sp
}

// lifecycleCtx returns the root span context for a workload, or the
// zero context when no lifecycle span is open — stage spans then
// become roots of their own traces.
func (m *Market) lifecycleCtx(w identity.Address) telemetry.SpanContext {
	return m.lifecycles[w].Context()
}

// endLifecycle closes and forgets a workload's root span.
func (m *Market) endLifecycle(w identity.Address) {
	if sp, ok := m.lifecycles[w]; ok {
		sp.End()
		delete(m.lifecycles, w)
	}
}

// SendAndSeal signs, submits and seals a transaction in its own block,
// returning the receipt — the convenience path used by actors and tests.
func (m *Market) SendAndSeal(from *identity.Identity, to identity.Address, value uint64, data []byte) (*ledger.Receipt, error) {
	timer := mSendSeal.Time()
	defer timer.Stop()
	tx := m.SignedTx(from, to, value, data)
	if err := m.Submit(tx); err != nil {
		return nil, err
	}
	if _, err := m.SealBlock(); err != nil {
		return nil, err
	}
	rcpt, ok := m.Chain.Receipt(tx.Hash())
	if !ok {
		return nil, errors.New("market: transaction not included")
	}
	return rcpt, nil
}

// MustSucceed converts a failed receipt into an error.
func MustSucceed(rcpt *ledger.Receipt, err error) (*ledger.Receipt, error) {
	if err != nil {
		return nil, err
	}
	if !rcpt.Succeeded() {
		return rcpt, fmt.Errorf("market: transaction reverted: %s", rcpt.Err)
	}
	return rcpt, nil
}

// View performs a read-only contract call.
func (m *Market) View(caller, to identity.Address, method string, args []byte) ([]byte, error) {
	return m.Runtime.View(m.Chain.State(), caller, to, method, args)
}

// WorkloadStateOf reads a workload contract's lifecycle state.
func (m *Market) WorkloadStateOf(addr identity.Address) (WorkloadState, error) {
	raw, err := m.View(identity.ZeroAddress, addr, "state", nil)
	if err != nil {
		return 0, err
	}
	d := contract.NewDecoder(raw)
	return WorkloadState(d.Uint64()), d.Err()
}

// WorkloadSpecOf reads a workload contract's spec.
func (m *Market) WorkloadSpecOf(addr identity.Address) (*Spec, error) {
	raw, err := m.View(identity.ZeroAddress, addr, "spec", nil)
	if err != nil {
		return nil, err
	}
	return DecodeSpec(raw)
}

// WorkloadResultOf reads the accepted result hash and scores.
func (m *Market) WorkloadResultOf(addr identity.Address) (crypto.Digest, []Score, error) {
	raw, err := m.View(identity.ZeroAddress, addr, "result", nil)
	if err != nil {
		return crypto.ZeroDigest, nil, err
	}
	d := contract.NewDecoder(raw)
	h, blob := d.Digest(), d.Blob()
	if err := d.Err(); err != nil {
		return crypto.ZeroDigest, nil, err
	}
	if len(blob) == 0 {
		return h, nil, nil
	}
	scores, err := DecodeScores(blob)
	return h, scores, err
}

// WorkloadCount returns the number of workload contracts in the registry
// with a single view call.
func (m *Market) WorkloadCount() (uint64, error) {
	raw, err := m.View(identity.ZeroAddress, m.Registry, "workloadCount", nil)
	if err != nil {
		return 0, err
	}
	d := contract.NewDecoder(raw)
	return d.Uint64(), d.Err()
}

// Workloads lists all workload contract addresses in the registry.
func (m *Market) Workloads() ([]identity.Address, error) {
	n, err := m.WorkloadCount()
	if err != nil {
		return nil, err
	}
	return m.viewAddresses(identity.ZeroAddress, m.Registry, "workloadAt", n)
}

// viewAddresses reads n addresses through an indexed view method.
func (m *Market) viewAddresses(caller, to identity.Address, method string, n uint64) ([]identity.Address, error) {
	out := make([]identity.Address, 0, n)
	for i := uint64(0); i < n; i++ {
		raw, err := m.View(caller, to, method, contract.NewEncoder().Uint64(i).Bytes())
		if err != nil {
			return nil, err
		}
		d := contract.NewDecoder(raw)
		out = append(out, d.Address())
		if err := d.Err(); err != nil {
			return nil, err
		}
	}
	return out, nil
}
