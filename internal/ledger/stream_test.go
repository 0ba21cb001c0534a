package ledger

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"pds2/internal/crypto"
	"pds2/internal/identity"
)

// streamFixture is a producer chain of n sealed blocks, txsPerBlock
// transfers each, and the config a replica needs to follow it.
type streamFixture struct {
	cfg       ChainConfig
	authority *identity.Identity
	alice     *identity.Identity
	blocks    []*Block // blocks[i] has height i+1
}

func newStreamFixture(t testing.TB, n, txsPerBlock int) *streamFixture {
	t.Helper()
	fx := &streamFixture{authority: testIdentity(100), alice: testIdentity(1)}
	fx.cfg = ChainConfig{
		Authorities:  []identity.Address{fx.authority.Address()},
		GenesisAlloc: map[identity.Address]uint64{fx.alice.Address(): 1 << 40},
	}
	producer, err := NewChain(fx.cfg)
	if err != nil {
		t.Fatal(err)
	}
	var nonce uint64
	for h := 1; h <= n; h++ {
		txs := make([]*Transaction, txsPerBlock)
		for i := range txs {
			txs[i] = SignTx(fx.alice, testIdentity(2).Address(), 1, nonce, 50_000, nil)
			nonce++
		}
		b, err := producer.ProposeBlock(fx.authority, uint64(h), txs)
		if err != nil {
			t.Fatal(err)
		}
		fx.blocks = append(fx.blocks, b)
	}
	return fx
}

// replica returns a fresh chain that has imported the first upTo blocks.
func (fx *streamFixture) replica(t testing.TB, workers, upTo int) *Chain {
	t.Helper()
	cfg := fx.cfg
	cfg.StatelessWorkers = workers
	c, err := NewChain(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rejected, err := c.ImportStream(BlocksOf(fx.blocks[:upTo]...)); err != nil {
		t.Fatalf("clean prefix rejected at %v: %v", rejected, err)
	}
	return c
}

// mutate returns a deep-enough copy of b for edit to change headers and
// replace transactions without touching the fixture.
func mutate(b *Block, edit func(*Block)) *Block {
	c := *b
	c.Txs = append([]*Transaction(nil), b.Txs...)
	edit(&c)
	return &c
}

func forgeSig(b *Block, i int) {
	tx := *b.Txs[i]
	tx.Value = 999_999 // no longer what the sender signed
	b.Txs[i] = &tx
}

// TestImportErrorOrderIdenticalAcrossEntryPoints pins the error-order
// rule: a block wrong in two ways reports the error the serial check
// order reaches first — never the one a worker happened to find first —
// and reports it verbatim from the streamed import, ImportBlock and
// VerifyBlock, at every worker count.
func TestImportErrorOrderIdenticalAcrossEntryPoints(t *testing.T) {
	const at = 3 // the doubly-wrong block replaces height at
	fx := newStreamFixture(t, at, 20)
	mallory := testIdentity(66)
	good := fx.blocks[at-1]

	cases := []struct {
		name string
		bad  *Block
		want string
	}{
		{"bad parent and forged tx signature", mutate(good, func(b *Block) {
			b.Header.Parent = crypto.HashString("elsewhere")
			forgeSig(b, 5)
		}), "ledger: block parent mismatch"},
		{"bad proposer and bad tx root", mutate(good, func(b *Block) {
			b.Txs = b.Txs[:len(b.Txs)-1]
			b.seal(mallory)
		}), "ledger: proposer not authorized for this height"},
		{"bad seal and bad nonce", mutate(good, func(b *Block) {
			b.Txs[0] = SignTx(fx.alice, testIdentity(2).Address(), 1, 1<<20, 50_000, nil)
			b.Header.TxRoot = txRoot(b.Txs)
			b.seal(fx.authority)
			b.Header.Sig = append([]byte(nil), b.Header.Sig...)
			b.Header.Sig[0] ^= 0xFF
		}), "ledger: invalid proposer seal"},
		{"bad tx root and forged tx signature", mutate(good, func(b *Block) {
			forgeSig(b, 5)
			b.seal(fx.authority)
		}), "ledger: block tx root mismatch"},
		{"forged signatures in two chunks", mutate(good, func(b *Block) {
			forgeSig(b, verifyChunk+3)
			forgeSig(b, 2)
			b.Header.TxRoot = txRoot(b.Txs)
			b.seal(fx.authority)
		}), "ledger: tx 2 invalid: ledger: invalid transaction signature"},
		{"forged tx signature and bad nonce", mutate(good, func(b *Block) {
			b.Txs[0] = SignTx(fx.alice, testIdentity(2).Address(), 1, 1<<20, 50_000, nil)
			forgeSig(b, 19)
			b.Header.TxRoot = txRoot(b.Txs)
			b.seal(fx.authority)
		}), "ledger: tx 19 invalid: ledger: invalid transaction signature"},
		{"nil transaction", mutate(good, func(b *Block) {
			b.Txs[7] = nil
		}), "ledger: tx 7 invalid: ledger: nil transaction"},
	}
	for _, tc := range cases {
		for _, workers := range []int{0, 1, 4} {
			name := fmt.Sprintf("%s/workers=%d", tc.name, workers)
			tail := append(append([]*Block(nil), fx.blocks[:at-1]...), tc.bad)

			streamed := fx.replica(t, workers, 0)
			rejected, err := streamed.ImportStream(BlocksOf(tail...))
			if rejected != tc.bad || err == nil || err.Error() != tc.want {
				t.Errorf("%s: ImportStream rejected %v with %q, want the bad block with %q", name, rejected, err, tc.want)
			}
			if streamed.Height() != at-1 || streamed.State().Root() != fx.blocks[at-2].Header.StateRoot {
				t.Errorf("%s: ImportStream left the chain at %d", name, streamed.Height())
			}

			single := fx.replica(t, workers, at-1)
			if err := single.ImportBlock(tc.bad); err == nil || err.Error() != tc.want {
				t.Errorf("%s: ImportBlock: %q, want %q", name, err, tc.want)
			}
			if err := single.VerifyBlock(tc.bad); err == nil || err.Error() != tc.want {
				t.Errorf("%s: VerifyBlock: %q, want %q", name, err, tc.want)
			}
			if single.Height() != at-1 || single.State().JournalLen() != 0 {
				t.Errorf("%s: rejected block left residue (height %d, journal %d)", name, single.Height(), single.State().JournalLen())
			}
			// The good block still imports: nothing the rejected one
			// computed ahead was kept.
			if err := single.ImportBlock(good); err != nil {
				t.Errorf("%s: good block after the bad one: %v", name, err)
			}
		}
	}
}

// settledGoroutines polls until the goroutine count is back at or below
// want: a goroutine that has signalled its exit may still be counted for
// an instant.
func settledGoroutines(want int) int {
	deadline := time.Now().Add(2 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= want || time.Now().After(deadline) {
			return n
		}
		runtime.Gosched()
	}
}

// TestImportStreamRejectsMidStream forges the block in the middle of a
// stream three windows long: the import stops there with the block's own
// error, the chain stands at the block before with that block's root, the
// source is read at most one window further, and every goroutine the
// import started is gone.
func TestImportStreamRejectsMidStream(t *testing.T) {
	const n = 3 * importWindow
	const h = n / 2
	fx := newStreamFixture(t, n, 3)
	blocks := append([]*Block(nil), fx.blocks...)
	blocks[h-1] = mutate(blocks[h-1], func(b *Block) {
		forgeSig(b, 1)
		b.Header.TxRoot = txRoot(b.Txs)
		b.seal(fx.authority)
	})
	const want = "ledger: tx 1 invalid: ledger: invalid transaction signature"

	for _, workers := range []int{0, 1, 4} {
		before := runtime.NumGoroutine()
		c := fx.replica(t, workers, 0)
		yields := 0
		rejected, err := c.ImportStream(func(yield func(*Block) error) error {
			for _, b := range blocks {
				yields++
				if err := yield(b); err != nil {
					return err
				}
			}
			return nil
		})
		if rejected != blocks[h-1] || err == nil || err.Error() != want {
			t.Fatalf("workers=%d: rejected %v with %q, want block %d with %q", workers, rejected, err, h, want)
		}
		if c.Height() != h-1 || c.State().Root() != blocks[h-2].Header.StateRoot {
			t.Fatalf("workers=%d: chain at %d, want %d with its sealed root", workers, c.Height(), h-1)
		}
		if c.State().JournalLen() != 0 {
			t.Fatalf("workers=%d: %d journal entries left open", workers, c.State().JournalLen())
		}
		if yields > h+importWindow {
			t.Fatalf("workers=%d: source read %d blocks, more than a window (%d) past the rejected block %d", workers, yields, importWindow, h)
		}
		if after := settledGoroutines(before); after > before {
			t.Fatalf("workers=%d: %d goroutines before the import, %d after", workers, before, after)
		}
		// The chain is still usable where it stopped.
		if err := c.ImportBlock(fx.blocks[h-1]); err != nil {
			t.Fatalf("workers=%d: genuine block %d after the forged one: %v", workers, h, err)
		}
	}

	// Replay wraps the same error with the block's position.
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(ChainExport{
		Authorities: fx.cfg.Authorities, GenesisAlloc: fx.cfg.GenesisAlloc, Blocks: blocks,
	}); err != nil {
		t.Fatal(err)
	}
	_, err := Replay(&buf, nil)
	if wrapped := fmt.Sprintf("ledger: replay block %d: %s", h, want); err == nil || err.Error() != wrapped {
		t.Fatalf("Replay: %q, want %q", err, wrapped)
	}
	if !errors.Is(err, ErrTxSignature) {
		t.Fatalf("Replay error does not wrap ErrTxSignature: %v", err)
	}
}

// TestImportStreamSourceError: when the source itself fails, every block
// it yielded first is committed and its error comes back unchanged, with
// no block blamed. A nil block is such a failure.
func TestImportStreamSourceError(t *testing.T) {
	const n = 2*importWindow + 3
	fx := newStreamFixture(t, n, 1)
	errTorn := errors.New("source: torn frame")
	for _, workers := range []int{0, 1} {
		c := fx.replica(t, workers, 0)
		rejected, err := c.ImportStream(func(yield func(*Block) error) error {
			if err := BlocksOf(fx.blocks...)(yield); err != nil {
				return err
			}
			return errTorn
		})
		if rejected != nil || err != errTorn {
			t.Fatalf("workers=%d: got (%v, %v), want the source's error and no block", workers, rejected, err)
		}
		if c.Height() != n || c.State().Root() != fx.blocks[n-1].Header.StateRoot {
			t.Fatalf("workers=%d: chain at %d, want all %d yielded blocks committed", workers, c.Height(), n)
		}

		c = fx.replica(t, workers, 0)
		withNil := append(append([]*Block(nil), fx.blocks[:5]...), nil, fx.blocks[5])
		rejected, err = c.ImportStream(BlocksOf(withNil...))
		if rejected != nil || err == nil || err.Error() != "ledger: nil block" {
			t.Fatalf("workers=%d: nil block: got (%v, %v)", workers, rejected, err)
		}
		if c.Height() != 5 {
			t.Fatalf("workers=%d: chain at %d after a nil sixth block, want 5", workers, c.Height())
		}
	}
}

// gateApplier blocks the first Apply until released, holding the
// consumer inside block 1 while the producer reads ahead.
type gateApplier struct {
	entered chan struct{}
	release chan struct{}
	gated   atomic.Bool
}

func (g *gateApplier) Apply(st *State, tx *Transaction, height uint64) (*Receipt, error) {
	if g.gated.CompareAndSwap(false, true) {
		close(g.entered)
		<-g.release
	}
	return TransferApplier{}.Apply(st, tx, height)
}

// TestImportStreamReadAheadIsBounded holds the executor inside block 1
// and counts how far the source is read meanwhile: the window admits
// importWindow blocks, or fewer when their transactions reach
// importWindowTxs first. (The blocks after the first are junk that fails
// its pure checks at once; only their size matters here.)
func TestImportStreamReadAheadIsBounded(t *testing.T) {
	fx := newStreamFixture(t, 1, 1)
	junk := func(txs int) *Block {
		b := &Block{Txs: make([]*Transaction, txs)}
		for i := range b.Txs {
			b.Txs[i] = &Transaction{}
		}
		return b
	}
	for _, tc := range []struct {
		name    string
		junkTxs int
		want    int64 // yield calls entered while block 1 executes
	}{
		{"block bound", 0, importWindow + 1},
		// 1 + 2×3000 transactions fit in the window; a third junk block
		// would make 9001.
		{"transaction bound", 3000, 4},
	} {
		gate := &gateApplier{entered: make(chan struct{}), release: make(chan struct{})}
		cfg := fx.cfg
		cfg.Applier = gate
		c, err := NewChain(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var yields atomic.Int64
		type outcome struct {
			rejected *Block
			err      error
		}
		done := make(chan outcome, 1)
		go func() {
			rejected, err := c.ImportStream(func(yield func(*Block) error) error {
				yields.Add(1)
				if err := yield(fx.blocks[0]); err != nil {
					return err
				}
				for i := 0; i < 4*importWindow; i++ {
					yields.Add(1)
					if err := yield(junk(tc.junkTxs)); err != nil {
						return err
					}
				}
				return nil
			})
			done <- outcome{rejected, err}
		}()
		<-gate.entered
		deadline := time.Now().Add(5 * time.Second)
		for yields.Load() < tc.want && time.Now().Before(deadline) {
			runtime.Gosched()
		}
		// The producer is now (at most) blocked in the yield that would
		// overfill the window; give it a moment to prove it stays there.
		time.Sleep(20 * time.Millisecond)
		if got := yields.Load(); got != tc.want {
			t.Errorf("%s: source entered %d yields while block 1 executed, want %d", tc.name, got, tc.want)
		}
		close(gate.release)
		out := <-done
		if out.rejected == nil || !errors.Is(out.err, ErrBadParent) {
			t.Errorf("%s: got (%v, %v), want the first junk block rejected for its parent", tc.name, out.rejected, out.err)
		}
		if c.Height() != 1 {
			t.Errorf("%s: chain at %d, want 1", tc.name, c.Height())
		}
	}
}
