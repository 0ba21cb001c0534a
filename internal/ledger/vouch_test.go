package ledger

import (
	"errors"
	"fmt"
	"testing"

	"pds2/internal/identity"
)

// vouchFixture is a one-authority chain over n funded senders, a pool,
// and one transfer per sender (nonce 0), so any subset in any order is a
// valid candidate batch.
type vouchFixture struct {
	chain     *Chain
	pool      *Mempool
	authority *identity.Identity
	senders   []*identity.Identity
	txs       []*Transaction
}

func newVouchFixture(t *testing.T, n int) *vouchFixture {
	t.Helper()
	fx := &vouchFixture{authority: testIdentity(100), pool: NewMempool(0)}
	alloc := make(map[identity.Address]uint64, n)
	for i := 0; i < n; i++ {
		id := testIdentity(uint64(200 + i))
		fx.senders = append(fx.senders, id)
		alloc[id.Address()] = 1_000_000
		fx.txs = append(fx.txs, SignTx(id, fx.authority.Address(), 1, 0, 50_000, []byte{byte(i)}))
	}
	chain, err := NewChain(ChainConfig{
		Authorities:  []identity.Address{fx.authority.Address()},
		GenesisAlloc: alloc,
	})
	if err != nil {
		t.Fatal(err)
	}
	fx.chain = chain
	return fx
}

// wantInvalid asserts err is the proposer's verbatim complaint about
// candidate i and that nothing was sealed.
func (fx *vouchFixture) wantInvalid(t *testing.T, err error, i int, cause error) {
	t.Helper()
	want := fmt.Sprintf("ledger: tx %d invalid: %v", i, cause)
	if err == nil || err.Error() != want || !errors.Is(err, cause) {
		t.Fatalf("got %v, want %q", err, want)
	}
	if fx.chain.Height() != 0 || fx.chain.State().JournalLen() != 0 {
		t.Fatalf("rejected proposal left height %d, journal %d", fx.chain.Height(), fx.chain.State().JournalLen())
	}
}

// TestProposerVerifiesWhatNoPoolVouchesFor hands the proposer a forged
// signature that never went through Add — with no pool, and with a pool
// that holds other transactions — at batch sizes around a chunk boundary:
// the error and its index are what ProposeBlock always reported.
func TestProposerVerifiesWhatNoPoolVouchesFor(t *testing.T) {
	for _, n := range []int{1, verifyChunk - 1, verifyChunk, verifyChunk + 1, 3*verifyChunk + 2} {
		for _, bad := range []int{0, n / 2, n - 1} {
			fx := newVouchFixture(t, n)
			forged := *fx.txs[bad]
			forged.Value = 999_999
			batch := append([]*Transaction(nil), fx.txs...)
			batch[bad] = &forged

			_, err := fx.chain.ProposeBlock(fx.authority, 1, batch)
			fx.wantInvalid(t, err, bad, ErrTxSignature)

			// The genuine transaction is pooled; the forgery shares its
			// sender and nonce but not its bytes.
			for _, tx := range fx.txs {
				if err := fx.pool.Add(tx); err != nil {
					t.Fatal(err)
				}
			}
			_, err = fx.chain.ProposeFromPool(fx.pool, fx.authority, 1, batch)
			fx.wantInvalid(t, err, bad, ErrTxSignature)

			// And the all-genuine batch seals, vouched or not.
			if _, err := fx.chain.ProposeFromPool(fx.pool, fx.authority, 1, fx.txs); err != nil {
				t.Fatalf("n=%d: genuine pooled batch rejected: %v", n, err)
			}
		}
	}
}

// TestVouchIsLostWhenAPooledTransactionChanges mutates, after Add, each
// field group VerifyBasic reads: the pool no longer vouches and the seal
// fails as if the transaction had never been admitted.
func TestVouchIsLostWhenAPooledTransactionChanges(t *testing.T) {
	other := testIdentity(999)
	for _, tc := range []struct {
		name   string
		mutate func(*Transaction)
		cause  error
	}{
		{"sig", func(tx *Transaction) { tx.Sig[5] ^= 1 }, ErrTxSignature},
		{"sig-truncated", func(tx *Transaction) { tx.Sig = tx.Sig[:len(tx.Sig)-1] }, ErrTxSignature},
		{"pub", func(tx *Transaction) { tx.Pub = other.PublicKey() }, ErrTxSender},
		{"value", func(tx *Transaction) { tx.Value++ }, ErrTxSignature},
		{"data", func(tx *Transaction) { tx.Data[0] ^= 1 }, ErrTxSignature},
		{"to", func(tx *Transaction) { tx.To = other.Address() }, ErrTxSignature},
		{"gas-limit", func(tx *Transaction) { tx.GasLimit++ }, ErrTxSignature},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const n, at = verifyChunk + 3, verifyChunk + 1
			fx := newVouchFixture(t, n)
			for _, tx := range fx.txs {
				if err := fx.pool.Add(tx); err != nil {
					t.Fatal(err)
				}
			}
			if v := fx.pool.vouch(fx.txs); !v[at] {
				t.Fatal("freshly admitted transaction not vouched for")
			}
			tc.mutate(fx.txs[at])
			v := fx.pool.vouch(fx.txs)
			for i := range v {
				if v[i] != (i != at) {
					t.Fatalf("vouch[%d] = %v after mutating %d", i, v[i], at)
				}
			}
			_, err := fx.chain.ProposeFromPool(fx.pool, fx.authority, 1, fx.txs)
			fx.wantInvalid(t, err, at, tc.cause)
		})
	}
}

// TestVouchFollowsThePoolEntry: a replaced or removed transaction loses
// its vouch, a nil or never-admitted one has none, and an equal copy of a
// pooled transaction shares it (the vouch is for bytes, not a pointer).
func TestVouchFollowsThePoolEntry(t *testing.T) {
	fx := newVouchFixture(t, 2)
	a, b := fx.txs[0], fx.txs[1]
	replacement := SignTx(fx.senders[0], fx.authority.Address(), 2, 0, 50_000, nil)
	vouch := func(tx *Transaction) bool { return fx.pool.vouch([]*Transaction{tx})[0] }

	if vouch(a) || vouch(nil) {
		t.Fatal("vouched for a transaction the pool never admitted")
	}
	if err := fx.pool.Add(a); err != nil {
		t.Fatal(err)
	}
	same := *a
	if !vouch(a) || !vouch(&same) || vouch(b) {
		t.Fatal("vouch does not track admission")
	}
	if err := fx.pool.Add(replacement); err != nil {
		t.Fatal(err)
	}
	if vouch(a) || !vouch(replacement) {
		t.Fatal("same-nonce replacement did not move the vouch")
	}
	// Removing the replaced transaction takes nothing with it.
	fx.pool.Remove([]*Transaction{a})
	if !vouch(replacement) || fx.pool.Len() != 1 {
		t.Fatal("removing a replaced transaction disturbed its replacement")
	}
	fx.pool.Remove([]*Transaction{replacement})
	if vouch(replacement) || fx.pool.Len() != 0 {
		t.Fatal("removed transaction still vouched for")
	}
	// Stale eviction drops the vouch too.
	if err := fx.pool.Add(b); err != nil {
		t.Fatal(err)
	}
	if _, err := fx.chain.ProposeBlock(fx.authority, 1, []*Transaction{b}); err != nil {
		t.Fatal(err)
	}
	if fx.pool.Prune(fx.chain.State()) != 1 || vouch(b) {
		t.Fatal("evicted transaction still vouched for")
	}
}

// TestMixedBatchReportsLowestBadIndex seals a batch of vouched and
// un-vouched candidates with two bad ones among them — a pooled
// transaction mutated after Add and a forgery that never saw the pool:
// the lower batch index is reported, whichever kind it is.
func TestMixedBatchReportsLowestBadIndex(t *testing.T) {
	const n = 4*verifyChunk + 1
	for _, tc := range []struct{ mutated, forged, want int }{
		{mutated: 10, forged: 21, want: 10},
		{mutated: 30, forged: 9, want: 9},
	} {
		fx := newVouchFixture(t, n)
		for i, tx := range fx.txs {
			if i%2 == 0 { // odd candidates reach the proposer un-pooled
				if err := fx.pool.Add(tx); err != nil {
					t.Fatal(err)
				}
			}
		}
		fx.txs[tc.mutated].Value++
		forged := *fx.txs[tc.forged]
		forged.Sig = append([]byte(nil), forged.Sig...)
		forged.Sig[0] ^= 1
		fx.txs[tc.forged] = &forged
		_, err := fx.chain.ProposeFromPool(fx.pool, fx.authority, 1, fx.txs)
		fx.wantInvalid(t, err, tc.want, ErrTxSignature)
	}
}

// TestAVouchBugCannotReachAnAcceptedChain plants what a broken vouch
// would amount to — a pool entry for a forged transaction that never
// passed VerifyBasic — and shows where the damage stops: this node seals
// the block, and every importer rejects it at the signature.
func TestAVouchBugCannotReachAnAcceptedChain(t *testing.T) {
	fx := newVouchFixture(t, 3)
	forged := *fx.txs[1]
	forged.Value = 999
	fx.txs[1] = &forged
	fx.pool.bySender[forged.From] = []*pooled{{tx: &forged, hash: forged.Hash(), verified: verifiedDigest(&forged)}}

	block, err := fx.chain.ProposeFromPool(fx.pool, fx.authority, 1, fx.txs)
	if err != nil {
		t.Fatalf("planted vouch not honoured: %v", err)
	}
	replica := newVouchFixture(t, 3).chain
	want := "ledger: tx 1 invalid: " + ErrTxSignature.Error()
	if err := replica.ImportBlock(block); err == nil || err.Error() != want {
		t.Fatalf("ImportBlock: got %v, want %q", err, want)
	}
	if err := replica.VerifyBlock(block); err == nil || err.Error() != want {
		t.Fatalf("VerifyBlock: got %v, want %q", err, want)
	}
	if replica.Height() != 0 {
		t.Fatal("forged block advanced the replica")
	}
}
