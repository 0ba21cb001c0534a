package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"time"

	"pds2/internal/contract"
	"pds2/internal/crypto"
	"pds2/internal/identity"
	"pds2/internal/ledger"
	"pds2/internal/market"
	"pds2/internal/policy"
	"pds2/internal/token"
	"pds2/internal/vm"
)

// contractGas is the gas limit on generated contract transactions. The
// pool packs by intrinsic gas and the chain charges gas used, so the
// headroom costs nothing (it is what market.DefaultGasLimit attaches).
const contractGas = 40_000_000

// expiryMargin is how many blocks past its due slot a generated
// workload's expiry lies: it must deploy before that height (so up to
// four seconds of delay are tolerated) and is cancelled after it.
const expiryMargin = 16

// Keyed accounts of a sender's partition, by role.
const (
	transferSenders = 1024 // per sender, transfer_large_state
	writeSenders    = 256  // per sender, read_heavy background writes
	mixedBankers    = 8    // per sender, one ERC-20 each
	mixedProviders  = 16   // per sender, one declarative and one programmed dataset each
)

// mixEntry is one kind of op and its share of a mix, in percent.
type mixEntry struct {
	kind opKind
	pct  int
}

// Op mix of market_mixed.
var mixedMix = []mixEntry{
	{opMint, 35}, {opRegisterDataset, 15}, {opSetPolicy, 15},
	{opDeployContract, 5}, {opCheck, 20}, {opLifecycle, 10},
}

// Read mix of read_heavy.
var readMix = []mixEntry{
	{opReadAccount, 60}, {opReadReceipt, 20}, {opReadStatus, 10}, {opReadBlock, 10},
}

// forbiddenClass is a computation class no generated policy allows.
const forbiddenClass = "bench-forbidden"

// datasetMeta is the metadata digest every generated dataset registers.
var datasetMeta = crypto.HashString("bench/meta")

type account struct {
	id    *identity.Identity
	nonce uint64
}

func (a *account) sign(to identity.Address, value, gas uint64, data []byte) *ledger.Transaction {
	tx := ledger.SignTx(a.id, to, value, a.nonce, gas, data)
	a.nonce++
	return tx
}

func deriveAccounts(seed uint64, label string, n int) []*account {
	rng := crypto.NewDRBGFromUint64(seed, "bench/accounts/"+label)
	out := make([]*account, n)
	for i := range out {
		out[i] = &account{id: identity.New(label, rng)}
	}
	return out
}

// fillerAddress is a funded account nobody holds a key for: it makes
// the state large and receives transfers, mints and reads.
func fillerAddress(seed uint64, i int) identity.Address {
	d := crypto.HashString("bench/filler/" + strconv.FormatUint(seed, 10) + "/" + strconv.Itoa(i))
	var a identity.Address
	copy(a[:], d[:])
	return a
}

type banker struct {
	acct  *account
	token identity.Address
}

type provider struct {
	acct         *account
	declID, vmID crypto.Digest // base datasets: declarative policy, policy program
}

// partition is the slice of keyed accounts one sender owns.
type partition struct {
	index     int
	rng       *rand.Rand
	accts     []*account // transfer senders, round robin
	next      int
	bankers   []*banker
	providers []*provider
	fresh     []*account // one per generated marketplace workload
	seq       int
	txs       []*txRec
}

func (p *partition) sender() *account {
	a := p.accts[p.next%len(p.accts)]
	p.next++
	return a
}

// builder assembles one HTTP workload: schedule, accounts, node, plan.
type builder struct {
	name    string
	seed    uint64
	scale   httpScale
	senders int
	dur     [numPhases]time.Duration
	rng     *rand.Rand

	funded []identity.Address
	parts  []*partition
	plan   *plan
	n      *node
	h0     uint64 // height when set-up blocks are done

	// market_mixed: the four policy programs set-up compiles once.
	artifacts [4][]byte
	// datasets the layer pass evaluates policies on.
	declSample, vmSample crypto.Digest
	// transactions sealed during set-up, the first receipt-read targets.
	seedHashes []crypto.Digest
}

// httpEnv is a set-up node with its plan, ready to measure.
type httpEnv struct {
	*builder
	supply uint64 // native supply at genesis
}

// setupHTTP performs the whole set-up of an HTTP workload: derive the
// accounts, open a durable node with them funded, seal the workload's
// set-up blocks in process, pre-sign every transaction of the run and
// put the API in front.
func setupHTTP(name string, scale httpScale, seed uint64, seconds float64, senders int, dir string, rec *recorder) (*httpEnv, error) {
	b := &builder{
		name: name, seed: seed, scale: scale, senders: senders,
		rng:  rand.New(rand.NewSource(int64(seed))),
		plan: newPlan(senders),
	}
	measured := time.Duration(seconds * float64(time.Second))
	b.dur[phaseWarm] = warmup
	b.dur[phaseSteady] = time.Duration(float64(measured) * scale.steadyFrac)
	b.dur[phaseSat] = measured - b.dur[phaseSteady]

	b.schedule()
	b.deriveAccounts()

	alloc := make(map[identity.Address]uint64, len(b.funded))
	for _, a := range b.funded {
		alloc[a] = genesisFund
	}
	n, err := openNode(dir, marketConfig(seed, alloc))
	if err != nil {
		return nil, err
	}
	b.n = n
	env := &httpEnv{builder: b, supply: n.m.Chain.State().TotalBalance()}
	if err := b.setupBlocks(); err != nil {
		n.close()
		return nil, err
	}
	b.h0 = n.m.Height()
	b.signAll()
	if err := n.serve(rec); err != nil {
		n.close()
		return nil, err
	}
	return env, nil
}

// schedule lays out every phase's op skeletons — kind, due time and
// read targets — from the seed. Open-loop op i of a phase is due at
// i/rate and goes to sender i mod senders; a stalled sender therefore
// delays its own later ops and that delay is counted.
func (b *builder) schedule() {
	for ph := phaseWarm; ph <= phaseSteady; ph++ {
		var ops []*op
		n := int(b.scale.steadyRate * b.dur[ph].Seconds())
		for i := 0; i < n; i++ {
			ops = append(ops, &op{kind: b.primaryKind(), due: slot(i, b.scale.steadyRate)})
		}
		ops = append(ops, b.writes(b.dur[ph])...)
		sort.SliceStable(ops, func(i, j int) bool { return ops[i].due < ops[j].due })
		for i, o := range ops {
			b.plan.timed[ph][i%b.senders] = append(b.plan.timed[ph][i%b.senders], o)
		}
		if ph == phaseSteady {
			b.plan.scheduled += len(ops)
		}
	}
	// Saturation: each sender works through its own filler list back to
	// back; read_heavy's background writes stay on their schedule.
	perSender := int(b.scale.satCap * b.dur[phaseSat].Seconds() / float64(b.senders))
	for si := 0; si < b.senders; si++ {
		for i := 0; i < perSender; i++ {
			b.plan.filler[phaseSat][si] = append(b.plan.filler[phaseSat][si], &op{kind: b.primaryKind()})
		}
	}
	for i, o := range b.writes(b.dur[phaseSat]) {
		b.plan.timed[phaseSat][i%b.senders] = append(b.plan.timed[phaseSat][i%b.senders], o)
		b.plan.scheduled++
	}
}

func slot(i int, rate float64) time.Duration {
	return time.Duration(float64(i) / rate * float64(time.Second))
}

// writes is read_heavy's background transfer stream over one phase.
func (b *builder) writes(d time.Duration) []*op {
	var ops []*op
	for i := 0; i < int(b.scale.writeRate*d.Seconds()); i++ {
		ops = append(ops, &op{kind: opTransfer, due: slot(i, b.scale.writeRate)})
	}
	return ops
}

// primaryKind draws the kind of the next primary op of this workload.
func (b *builder) primaryKind() opKind {
	draw := func(mix []mixEntry) opKind {
		r := b.rng.Intn(100)
		for _, m := range mix {
			if r < m.pct {
				return m.kind
			}
			r -= m.pct
		}
		return mix[0].kind
	}
	switch b.name {
	case wlRead:
		return draw(readMix)
	case wlMixed:
		return draw(mixedMix)
	}
	return opTransfer
}

// deriveAccounts creates each sender's keyed accounts and the keyless
// filler addresses that bring the funded population to scale.accounts.
func (b *builder) deriveAccounts() {
	b.parts = make([]*partition, b.senders)
	for si := range b.parts {
		p := &partition{index: si, rng: rand.New(rand.NewSource(int64(b.seed)*1_000_003 + int64(si)))}
		label := b.name + "/" + strconv.Itoa(si)
		switch b.name {
		case wlTransfer:
			p.accts = deriveAccounts(b.seed, label, transferSenders)
		case wlRead:
			p.accts = deriveAccounts(b.seed, label, writeSenders)
		case wlMixed:
			for _, a := range deriveAccounts(b.seed, label+"/banker", mixedBankers) {
				p.bankers = append(p.bankers, &banker{acct: a, token: contract.ContractAddress(a.id.Address(), 0)})
			}
			for i, a := range deriveAccounts(b.seed, label+"/provider", mixedProviders) {
				p.providers = append(p.providers, &provider{
					acct:   a,
					declID: crypto.HashString(fmt.Sprintf("bench/%d/%d/decl/%d", b.seed, si, i)),
					vmID:   crypto.HashString(fmt.Sprintf("bench/%d/%d/vm/%d", b.seed, si, i)),
				})
			}
			workloads := 0
			for ph := 0; ph < numPhases; ph++ {
				for _, list := range [][]*op{b.plan.timed[ph][si], b.plan.filler[ph][si]} {
					for _, o := range list {
						if o.kind == opLifecycle {
							workloads++
						}
					}
				}
			}
			p.fresh = deriveAccounts(b.seed, label+"/consumer", workloads)
		}
		b.parts[si] = p
		for _, group := range [][]*account{p.accts, p.fresh} {
			for _, a := range group {
				b.funded = append(b.funded, a.id.Address())
			}
		}
		for _, bk := range p.bankers {
			b.funded = append(b.funded, bk.acct.id.Address())
		}
		for _, pr := range p.providers {
			b.funded = append(b.funded, pr.acct.id.Address())
		}
	}
	for i := len(b.funded); i < b.scale.accounts; i++ {
		b.funded = append(b.funded, fillerAddress(b.seed, i))
	}
}

func basePolicy(minAgg uint64) *policy.Policy {
	return &policy.Policy{AllowedClasses: []string{market.DefaultComputationClass}, MinAggregation: minAgg}
}

// setupBlocks seals, in process and before the API is up, what the
// workload's ops presuppose. market_mixed deploys its ERC-20s and
// registers its base datasets in one block and binds their policies —
// declarative on one half, a compiled program on the other — in a
// second. read_heavy seals one block of transfers so receipt reads have
// targets from the first op on.
func (b *builder) setupBlocks() error {
	m := b.n.m
	var want []*ledger.Transaction
	seal := func(txs []*ledger.Transaction) error {
		for _, tx := range txs {
			if err := m.Pool.Add(tx); err != nil {
				return fmt.Errorf("set-up admit: %w", err)
			}
		}
		if _, err := m.SealBlock(); err != nil {
			return fmt.Errorf("set-up seal: %w", err)
		}
		want = append(want, txs...)
		for _, tx := range txs {
			b.seedHashes = append(b.seedHashes, tx.Hash())
		}
		return nil
	}
	switch b.name {
	case wlRead:
		var txs []*ledger.Transaction
		for _, p := range b.parts {
			for i := 0; i < 32; i++ {
				a := p.sender()
				txs = append(txs, a.sign(b.recipient(p, a), amount(p.rng), ledger.TxBaseGas, nil))
			}
		}
		if err := seal(txs); err != nil {
			return err
		}
	case wlMixed:
		for i := range b.artifacts {
			art, err := vm.CompilePolicy(basePolicy(uint64(i + 1)))
			if err != nil {
				return fmt.Errorf("compile policy program: %w", err)
			}
			b.artifacts[i] = art
		}
		var first, second []*ledger.Transaction
		for _, p := range b.parts {
			for _, bk := range p.bankers {
				first = append(first, bk.acct.sign(identity.ZeroAddress, 0, contractGas,
					contract.DeployData(token.ERC20CodeName, token.ERC20InitArgs("Bench", "BNCH", 0))))
			}
			for _, pr := range p.providers {
				first = append(first,
					pr.acct.sign(m.Registry, 0, contractGas, market.RegisterDataData(pr.declID, datasetMeta)),
					pr.acct.sign(m.Registry, 0, contractGas, market.RegisterDataData(pr.vmID, datasetMeta)))
				second = append(second,
					pr.acct.sign(m.Registry, 0, contractGas, market.SetPolicyData(pr.declID, basePolicy(1))),
					pr.acct.sign(m.Registry, 0, contractGas, market.DeployPolicyData(pr.vmID, b.artifacts[0])))
			}
		}
		if err := seal(first); err != nil {
			return err
		}
		if err := seal(second); err != nil {
			return err
		}
		b.declSample, b.vmSample = b.parts[0].providers[0].declID, b.parts[0].providers[0].vmID
	}
	for _, tx := range want {
		rcpt, ok := m.Chain.Receipt(tx.Hash())
		if !ok || !rcpt.Succeeded() {
			return fmt.Errorf("set-up transaction %s did not succeed", tx.Hash().Short())
		}
	}
	return nil
}

// recipient draws a uniformly random funded address other than the
// sender's own.
func (b *builder) recipient(p *partition, from *account) identity.Address {
	for {
		to := b.funded[p.rng.Intn(len(b.funded))]
		if to != from.id.Address() {
			return to
		}
	}
}

// signAll fills in every op skeleton: each sender's partition signs its
// own transactions in the order the sender will issue them, so nonces
// follow send order. The partitions sign one after the other: on the
// reference box two busy threads run at a speed that changes with the
// host's load, one thread does not, and set-up time is a gated metric.
func (b *builder) signAll() {
	for _, p := range b.parts {
		var base time.Duration
		for ph := 0; ph < numPhases; ph++ {
			for _, o := range b.plan.timed[ph][p.index] {
				b.fill(p, o, base+o.due)
			}
			for _, o := range b.plan.filler[ph][p.index] {
				b.fill(p, o, base+b.dur[ph])
			}
			base += b.dur[ph]
		}
		for _, t := range p.txs {
			b.plan.txs = append(b.plan.txs, t)
			b.plan.byHash[t.hash] = t
		}
	}
}

func (p *partition) addTx(tx *ledger.Transaction, route opKind) *txRec {
	t := &txRec{tx: tx, hash: tx.Hash(), route: route}
	p.txs = append(p.txs, t)
	return t
}

// fill completes one op. at is the op's due offset from the start of
// the run (for a filler op, the end of its phase): a generated
// workload's expiry height is derived from it.
func (b *builder) fill(p *partition, o *op, at time.Duration) {
	m := b.n.m
	p.seq++
	switch o.kind {
	case opTransfer:
		a := p.sender()
		o.tx = p.addTx(a.sign(b.recipient(p, a), amount(p.rng), ledger.TxBaseGas, nil), opTransfer)
	case opMint:
		bk := p.bankers[p.seq%len(p.bankers)]
		to := b.funded[p.rng.Intn(len(b.funded))]
		o.tx = p.addTx(bk.acct.sign(bk.token, 0, contractGas, token.ERC20MintData(to, 1)), opTransfer)
	case opRegisterDataset:
		pr := p.providers[p.seq%len(p.providers)]
		id := crypto.HashString(fmt.Sprintf("bench/%d/%d/data/%d", b.seed, p.index, p.seq))
		o.tx = p.addTx(pr.acct.sign(m.Registry, 0, contractGas,
			market.RegisterDataData(id, datasetMeta)), opRegisterDataset)
	case opSetPolicy:
		pr := p.providers[p.seq%len(p.providers)]
		o.tx = p.addTx(pr.acct.sign(m.Registry, 0, contractGas,
			market.SetPolicyData(pr.declID, basePolicy(uint64(1+p.seq%4)))), opSetPolicy)
		o.tx.dataID = pr.declID
	case opDeployContract:
		pr := p.providers[p.seq%len(p.providers)]
		o.tx = p.addTx(pr.acct.sign(m.Registry, 0, contractGas,
			market.DeployPolicyData(pr.vmID, b.artifacts[p.seq%4])), opDeployContract)
	case opCheck:
		// Evenly split: declarative or programmed dataset, allowed or
		// denied class. Every generated policy allows "train" at the
		// aggregation the check asks with, so the verdict is scripted.
		pr := p.providers[p.rng.Intn(len(p.providers))]
		o.dataID = pr.declID
		if p.seq%2 == 1 {
			o.dataID = pr.vmID
		}
		o.class, o.wantAllow = market.DefaultComputationClass, true
		if p.seq/2%2 == 1 {
			o.class, o.wantAllow = forbiddenClass, false
		}
	case opLifecycle:
		a := p.fresh[0]
		p.fresh = p.fresh[1:]
		spec := &market.Spec{
			Predicate:      "class=bench",
			MinProviders:   1,
			MinItems:       1,
			ExpiryHeight:   b.h0 + uint64(math.Ceil(float64(at)/float64(blockInterval))) + expiryMargin,
			ExecutorFeeBps: 1000,
			Measurement:    crypto.HashString("bench/enclave"),
			QAPub:          m.QA.PublicKey(),
			Params:         []byte("noop"),
		}
		addr := contract.ContractAddress(a.id.Address(), 0)
		o.wl = &workloadTxs{
			expiry: spec.ExpiryHeight,
			deploy: p.addTx(a.sign(identity.ZeroAddress, 10, contractGas,
				contract.DeployData(market.WorkloadCodeName, spec.Encode())), opTransfer),
			list:   p.addTx(a.sign(m.Registry, 0, contractGas, market.RegisterWorkloadData(addr)), opTransfer),
			cancel: p.addTx(a.sign(addr, 0, contractGas, contract.CallData("cancel", nil)), opTransfer),
		}
	case opReadAccount:
		o.addr = b.funded[p.rng.Intn(len(b.funded))]
	case opReadReceipt, opReadBlock:
		o.pick = p.rng.Uint64()
	}
}

// amount draws a transfer's value: 1 to 1000 tokens, far below what an
// account is funded with, so no generated transfer can overdraw.
func amount(rng *rand.Rand) uint64 { return 1 + uint64(rng.Intn(1000)) }
