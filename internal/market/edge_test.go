package market

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"pds2/internal/contract"
	"pds2/internal/crypto"
	"pds2/internal/identity"
	"pds2/internal/ledger"
	"pds2/internal/telemetry"
	"pds2/internal/token"
)

// TestWorkloadMatchSettleEdgeCases drives the workload state machine
// into every mismatched transition the lifecycle can reach and checks
// the revert reasons, table-driven: the governance layer must refuse,
// not wedge, when actors call out of order.
func TestWorkloadMatchSettleEdgeCases(t *testing.T) {
	cases := []struct {
		name string
		// call receives a freshly submitted (native-denominated, open)
		// workload and returns the receipt of the offending transaction.
		call    func(t *testing.T, w *testWorld, workload identity.Address) *ledger.Receipt
		wantErr string
	}{
		{
			name: "start with no registered executors",
			call: func(t *testing.T, w *testWorld, workload identity.Address) *ledger.Receipt {
				rcpt, err := w.m.SendAndSeal(w.consumer.ID, workload, 0, contract.CallData("start", nil))
				if err != nil {
					t.Fatal(err)
				}
				return rcpt
			},
			wantErr: "conditions not met",
		},
		{
			name: "fund a native-denominated workload",
			call: func(t *testing.T, w *testWorld, workload identity.Address) *ledger.Receipt {
				rcpt, err := w.m.SendAndSeal(w.consumer.ID, workload, 0, contract.CallData("fund", nil))
				if err != nil {
					t.Fatal(err)
				}
				return rcpt
			},
			wantErr: "expected funding",
		},
		{
			name: "finalize before execution",
			call: func(t *testing.T, w *testWorld, workload identity.Address) *ledger.Receipt {
				rcpt, err := w.m.SendAndSeal(w.consumer.ID, workload, 0, contract.CallData("finalize", nil))
				if err != nil {
					t.Fatal(err)
				}
				return rcpt
			},
			wantErr: "expected running",
		},
		{
			name: "cancel before expiry",
			call: func(t *testing.T, w *testWorld, workload identity.Address) *ledger.Receipt {
				rcpt, err := w.m.SendAndSeal(w.consumer.ID, workload, 0, contract.CallData("cancel", nil))
				if err != nil {
					t.Fatal(err)
				}
				return rcpt
			},
			wantErr: "not expired until",
		},
		{
			name: "register execution with garbage quote",
			call: func(t *testing.T, w *testWorld, workload identity.Address) *ledger.Receipt {
				args := contract.NewEncoder().Blob([]byte("not json")).Blob([]byte("[]")).Bytes()
				rcpt, err := w.m.SendAndSeal(w.executors[0].ID, workload, 0,
					contract.CallData("registerExecution", args))
				if err != nil {
					t.Fatal(err)
				}
				return rcpt
			},
			wantErr: "registerExecution",
		},
		{
			name: "submit result from unregistered executor",
			call: func(t *testing.T, w *testWorld, workload identity.Address) *ledger.Receipt {
				rcpt, err := w.m.SendAndSeal(w.executors[0].ID, workload, 0,
					contract.CallData("submitResult", contract.NewEncoder().
						Digest(crypto.HashString("bogus")).Blob(nil).Blob([]byte("{}")).Bytes()))
				if err != nil {
					t.Fatal(err)
				}
				return rcpt
			},
			wantErr: "expected running",
		},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := newTestWorld(t, uint64(100+i), 1, 1)
			workload, err := w.consumer.SubmitWorkload(w.spec, 50_000)
			if err != nil {
				t.Fatal(err)
			}
			rcpt := tc.call(t, w, workload)
			if rcpt.Succeeded() {
				t.Fatalf("offending call succeeded; want revert containing %q", tc.wantErr)
			}
			if !strings.Contains(rcpt.Err, tc.wantErr) {
				t.Fatalf("revert %q does not contain %q", rcpt.Err, tc.wantErr)
			}
			// A refused transition must leave the workload in its original
			// open state, still able to proceed normally.
			st, err := w.m.WorkloadStateOf(workload)
			if err != nil {
				t.Fatal(err)
			}
			if st != StateOpen {
				t.Fatalf("workload state %v after refused call, want %v", st, StateOpen)
			}
		})
	}
}

// TestRegisterExecutionAfterExpiry burns blocks past the workload's
// expiry height and checks registration is refused.
func TestRegisterExecutionAfterExpiry(t *testing.T) {
	w := newTestWorld(t, 200, 1, 1)
	w.spec.ExpiryHeight = w.m.Height() + 3
	workload, err := w.consumer.SubmitWorkload(w.spec, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	for w.m.Height() <= w.spec.ExpiryHeight {
		if _, err := MustSucceed(w.m.SendAndSeal(w.consumer.ID, w.providers[0].ID.Address(), 1, nil)); err != nil {
			t.Fatal(err)
		}
	}
	refs, err := w.providers[0].EligibleData(w.spec)
	if err != nil || len(refs) == 0 {
		t.Fatalf("eligible data: %v (%d refs)", err, len(refs))
	}
	auths, err := w.providers[0].Authorize(workload, w.executors[0].ID.Address(), refs, w.spec.ExpiryHeight+100)
	if err != nil {
		t.Fatal(err)
	}
	w.executors[0].Accept(workload, auths)
	err = w.executors[0].Register(workload)
	if err == nil {
		t.Fatal("registration after expiry succeeded")
	}
	if !strings.Contains(err.Error(), "expired at height") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestMempoolOverflow exercises Submit's overflow handling with a tiny
// pool: non-includable (nonce-gapped) transactions clog it and cannot
// be pruned, so admission fails; once chain progress makes entries
// stale, Submit's prune-retry path reclaims the space transparently.
func TestMempoolOverflow(t *testing.T) {
	rng := crypto.NewDRBGFromUint64(77, "mempool-overflow")
	authority := identity.New("authority", rng.Fork("authority"))
	alice := identity.New("alice", rng.Fork("alice"))
	bob := identity.New("bob", rng.Fork("bob"))
	const poolSize = 4
	m, err := New(Config{
		Seed: 77,
		GenesisAlloc: map[identity.Address]uint64{
			alice.Address(): 1_000_000,
			bob.Address():   1_000_000,
		},
		Authorities: []*identity.Identity{authority},
		MempoolSize: poolSize,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Clog the pool with nonce-gapped transactions: not includable, not
	// stale, so Prune cannot evict them.
	base := m.Chain.State().Nonce(alice.Address())
	for i := 0; i < poolSize; i++ {
		gapped := ledger.SignTx(alice, bob.Address(), 1, base+10+uint64(i), m.DefaultGasLimit, nil)
		if err := m.Submit(gapped); err != nil {
			t.Fatalf("gapped tx %d: %v", i, err)
		}
	}
	if got := m.Pool.Len(); got != poolSize {
		t.Fatalf("pool len %d, want %d", got, poolSize)
	}
	live := m.SignedTx(bob, alice.Address(), 5, nil)
	if err := m.Submit(live); !errors.Is(err, ledger.ErrMempoolFull) {
		t.Fatalf("submit into clogged pool: %v, want ErrMempoolFull", err)
	}

	// Make the clog stale: include alice transactions at the real nonces
	// through a directly proposed block, so the gapped entries fall
	// behind the chain and become prunable.
	var include []*ledger.Transaction
	for i := uint64(0); i < 12; i++ {
		include = append(include, ledger.SignTx(alice, bob.Address(), 1, base+i, m.DefaultGasLimit, nil))
	}
	if _, err := m.Chain.ProposeBlock(authority, m.Timestamp()+1, include); err != nil {
		t.Fatal(err)
	}

	// Submit now succeeds via the prune-retry path: the stale entries are
	// evicted to make room.
	if err := m.Submit(live); err != nil {
		t.Fatalf("submit after staleness: %v", err)
	}
	if _, err := m.SealBlockAt(m.Timestamp() + 2); err != nil {
		t.Fatal(err)
	}
	rcpt, ok := m.Chain.Receipt(live.Hash())
	if !ok {
		t.Fatal("live tx not included after overflow recovery")
	}
	if !rcpt.Succeeded() {
		t.Fatalf("live tx failed: %s", rcpt.Err)
	}
}

// TestSealBlockEvictsPoisonOvergasTx pins the poison-tx fix end to end:
// a transaction whose intrinsic gas exceeds the block gas limit can
// never seal, and before the fix it wedged SealBlock forever — the
// halving loop stopped at batch size one and the transaction was never
// evicted, so every subsequent seal rebuilt a batch starting with it
// and failed identically. The chain must instead evict it and keep
// sealing the healthy backlog.
func TestSealBlockEvictsPoisonOvergasTx(t *testing.T) {
	rng := crypto.NewDRBGFromUint64(99, "poison")
	ids := make([]*identity.Identity, 3)
	alloc := map[identity.Address]uint64{}
	for i := range ids {
		ids[i] = identity.New("acct", rng.Fork("id"))
		alloc[ids[i].Address()] = 1_000_000
	}
	m, err := New(Config{Seed: 99, GenesisAlloc: alloc, BlockGasLimit: 200_000})
	if err != nil {
		t.Fatal(err)
	}

	// 16kB of call data: intrinsic gas 21000 + 16*16384 = 283144, over
	// the 200k block limit — unsealable no matter how batches are cut.
	poison := m.SignedTx(ids[0], ids[1].Address(), 1, make([]byte, 16384))
	if err := m.Submit(poison); err != nil {
		t.Fatal(err)
	}
	healthy := []*ledger.Transaction{
		m.SignedTx(ids[1], ids[2].Address(), 5, nil),
		m.SignedTx(ids[2], ids[1].Address(), 7, nil),
	}
	for _, tx := range healthy {
		if err := m.Submit(tx); err != nil {
			t.Fatal(err)
		}
	}

	block, err := m.SealBlock()
	if err != nil {
		t.Fatalf("seal wedged on poison tx: %v", err)
	}
	if len(block.Txs) != len(healthy) {
		t.Fatalf("sealed %d txs, want the %d healthy ones", len(block.Txs), len(healthy))
	}
	if m.Pool.Contains(poison.Hash()) {
		t.Fatal("poison tx still pending after seal")
	}
	if _, ok := m.Chain.Receipt(poison.Hash()); ok {
		t.Fatal("poison tx must not execute")
	}

	// The chain has recovered: later traffic seals normally.
	follow := m.SignedTx(ids[0], ids[2].Address(), 3, nil)
	if err := m.Submit(follow); err != nil {
		t.Fatal(err)
	}
	block, err = m.SealBlock()
	if err != nil {
		t.Fatalf("post-eviction seal failed: %v", err)
	}
	if len(block.Txs) != 1 || block.Txs[0].Hash() != follow.Hash() {
		t.Fatal("follow-up tx did not seal after poison eviction")
	}
}

// fundedByAddress returns n funded identities in address order — the
// order Mempool.NextBatch visits senders in — and their genesis alloc.
func fundedByAddress(seed uint64, n int) ([]*identity.Identity, map[identity.Address]uint64) {
	rng := crypto.NewDRBGFromUint64(seed, "overflow")
	ids := make([]*identity.Identity, n)
	alloc := map[identity.Address]uint64{}
	for i := range ids {
		ids[i] = identity.New("acct", rng.Fork("id"))
		alloc[ids[i].Address()] = 1_000_000
	}
	slices.SortFunc(ids, func(a, b *identity.Identity) int {
		x, y := a.Address(), b.Address()
		return bytes.Compare(x[:], y[:])
	})
	return ids, alloc
}

// TestSealBlockPacksOverflowInOnePass pins the one rule for contract
// traffic: registerData burns ~51k gas against a ~22k intrinsic floor, so
// the pool's intrinsic bound offers eight candidates to a 200k block that
// holds three. The seal must verify and execute the batch once (one
// ProposeBlock, not a halving ladder), include exactly the maximal prefix
// that fits, and leave the rest pooled to drain in later seals.
func TestSealBlockPacksOverflowInOnePass(t *testing.T) {
	ids, alloc := fundedByAddress(31, 8)
	m, err := New(Config{Seed: 31, GenesisAlloc: alloc, BlockGasLimit: 200_000})
	if err != nil {
		t.Fatal(err)
	}
	txs := make([]*ledger.Transaction, len(ids))
	for i, id := range ids {
		txs[i] = m.SignedTx(id, m.Registry, 0,
			RegisterDataData(crypto.HashString(fmt.Sprint("dataset-", i)), crypto.HashString("meta")))
		if err := m.Submit(txs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if offered := len(m.Pool.NextBatch(m.Chain.State(), 10_000, m.Chain.GasLimit())); offered != len(txs) {
		t.Fatalf("pool offered %d candidates, want all %d (intrinsic gas fits)", offered, len(txs))
	}

	telemetry.Enable()
	defer telemetry.Disable()
	proposals := telemetry.H("ledger.block.stateless_seconds", telemetry.TimeBuckets)
	before := proposals.Count()
	block, err := m.SealBlock()
	if err != nil {
		t.Fatal(err)
	}
	if got := proposals.Count() - before; got != 1 {
		t.Fatalf("overflowing seal ran %d verification passes, want 1", got)
	}

	// The block is the candidates' prefix, in order, and maximal: the
	// next candidate's gas (learned when it seals later) would not fit.
	if len(block.Txs) == 0 || len(block.Txs) == len(txs) {
		t.Fatalf("sealed %d of %d: the batch should overflow and the block hold a proper prefix", len(block.Txs), len(txs))
	}
	for i, tx := range block.Txs {
		if tx != txs[i] {
			t.Fatalf("block tx %d is not candidate %d", i, i)
		}
	}
	if got, want := m.Pool.Len(), len(txs)-len(block.Txs); got != want {
		t.Fatalf("%d transactions pooled after the seal, want the %d that did not fit", got, want)
	}
	sealed := len(block.Txs)
	first := block
	for i := 0; i < len(txs) && m.Pool.Len() > 0; i++ {
		b, err := m.SealBlock()
		if err != nil {
			t.Fatal(err)
		}
		if b.Header.GasUsed > m.Chain.GasLimit() {
			t.Fatalf("block %d used %d gas over the %d limit", b.Header.Height, b.Header.GasUsed, m.Chain.GasLimit())
		}
		sealed += len(b.Txs)
	}
	if sealed != len(txs) || m.Pool.Len() != 0 {
		t.Fatalf("backlog not drained: sealed %d of %d, %d pending", sealed, len(txs), m.Pool.Len())
	}
	for _, tx := range txs {
		if rcpt, ok := m.Chain.Receipt(tx.Hash()); !ok || !rcpt.Succeeded() {
			t.Fatalf("registration %s did not succeed: %+v", tx.Hash().Short(), rcpt)
		}
	}
	next, _ := m.Chain.Receipt(txs[len(first.Txs)].Hash())
	if first.Header.GasUsed+next.GasUsed <= m.Chain.GasLimit() {
		t.Fatalf("prefix not maximal: %d used, next candidate needs %d, limit %d",
			first.Header.GasUsed, next.GasUsed, m.Chain.GasLimit())
	}
}

// TestSealBlockEvictsExecutionOvergasTx covers the one eviction the pool
// cannot make on sight: an ERC-20 deploy whose intrinsic gas (~22k) is
// under the 70k block limit but whose execution (~80k) is not, so
// NextBatch offers it and only the chain finds out. Heading the batch it
// can never seal: the same SealBlock call must evict it and seal the
// healthy backlog. Behind other candidates it merely ends the block, and
// is evicted when it reaches the head.
func TestSealBlockEvictsExecutionOvergasTx(t *testing.T) {
	ids, alloc := fundedByAddress(32, 3)
	m, err := New(Config{Seed: 32, GenesisAlloc: alloc, BlockGasLimit: 70_000})
	if err != nil {
		t.Fatal(err)
	}
	deploy := contract.DeployData(token.ERC20CodeName, token.ERC20InitArgs("Token", "TKN", 1_000))
	submit := func(from *identity.Identity, to identity.Address, data []byte) *ledger.Transaction {
		t.Helper()
		tx := m.SignedTx(from, to, 0, data)
		if err := m.Submit(tx); err != nil {
			t.Fatal(err)
		}
		return tx
	}
	telemetry.Enable()
	defer telemetry.Disable()
	evictions := telemetry.C("ledger.mempool.evicted_overgas_total")
	before := evictions.Value()

	// Heading the batch (lowest sender address): evicted in this call.
	poison := submit(ids[0], identity.ZeroAddress, deploy)
	if poison.IntrinsicGas() >= m.Chain.GasLimit() {
		t.Fatal("test premise: the pool must not be able to screen this transaction")
	}
	healthy := []*ledger.Transaction{
		submit(ids[1], ids[2].Address(), nil),
		submit(ids[2], ids[1].Address(), nil),
	}
	block, err := m.SealBlock()
	if err != nil {
		t.Fatalf("seal wedged on execution-overgas tx: %v", err)
	}
	if len(block.Txs) != len(healthy) || block.Txs[0] != healthy[0] || block.Txs[1] != healthy[1] {
		t.Fatalf("sealed %d txs, want the %d healthy ones", len(block.Txs), len(healthy))
	}
	if m.Pool.Contains(poison.Hash()) || m.Pool.Len() != 0 {
		t.Fatal("execution-overgas tx still pending after the seal")
	}
	if _, ok := m.Chain.Receipt(poison.Hash()); ok {
		t.Fatal("evicted tx must leave no receipt")
	}
	if got := m.Chain.State().Nonce(ids[0].Address()); got != 0 {
		t.Fatalf("evicted tx consumed its sender's nonce (%d)", got)
	}
	if got := evictions.Value() - before; got != 1 {
		t.Fatalf("evicted_overgas_total moved by %d, want 1", got)
	}

	// Behind a healthy candidate (highest sender address): the block ends
	// before it, and the next seal finds it at the head and evicts it.
	ahead := submit(ids[0], ids[1].Address(), nil)
	poison = submit(ids[2], identity.ZeroAddress, deploy)
	block, err = m.SealBlock()
	if err != nil {
		t.Fatal(err)
	}
	if len(block.Txs) != 1 || block.Txs[0] != ahead || !m.Pool.Contains(poison.Hash()) {
		t.Fatalf("sealed %d txs; want the one candidate ahead of the overgas tx, which stays pooled", len(block.Txs))
	}
	block, err = m.SealBlock()
	if err != nil {
		t.Fatal(err)
	}
	if len(block.Txs) != 0 || m.Pool.Len() != 0 {
		t.Fatalf("sealed %d txs with %d pending; want an empty block and the overgas tx evicted", len(block.Txs), m.Pool.Len())
	}
	if got := evictions.Value() - before; got != 2 {
		t.Fatalf("evicted_overgas_total moved by %d, want 2", got)
	}
}
