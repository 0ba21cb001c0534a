package api

import (
	"context"
	"testing"
	"time"

	"pds2/internal/crypto"
	"pds2/internal/identity"
	"pds2/internal/ledger"
	"pds2/internal/market"
)

// TestHostDurableLifecycle drives the one hosting sequence every binary
// uses: a durable host comes up on a free port, a submitted transaction
// is sealed by the host's own ticker (nobody calls Seal), a clean Close
// releases the store, and a second host over the same directory resumes
// at the same height with the same state and keeps sealing.
func TestHostDurableLifecycle(t *testing.T) {
	user := identity.New("user", crypto.NewDRBGFromUint64(1, "host-test"))
	peer := identity.New("peer", crypto.NewDRBGFromUint64(2, "host-test"))
	cfg := HostConfig{
		Market: market.Config{
			Seed:         9,
			GenesisAlloc: map[identity.Address]uint64{user.Address(): 1_000_000},
		},
		DataDir:       t.TempDir(),
		SnapshotEvery: 2,
		Listen:        "127.0.0.1:0",
		SealInterval:  5 * time.Millisecond,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// sendAndAwait submits one transfer and polls until the auto-sealer
	// has committed it.
	sendAndAwait := func(h *Host, nonce uint64) {
		t.Helper()
		client := NewClient(h.URL)
		tx := ledger.SignTx(user, peer.Address(), 10, nonce, 50_000, nil)
		if _, err := client.SubmitTx(ctx, tx); err != nil {
			t.Fatal(err)
		}
		for {
			if rcpt, err := client.Receipt(ctx, tx.Hash()); err == nil {
				if !rcpt.Succeeded() {
					t.Fatalf("transfer failed: %s", rcpt.Err)
				}
				return
			}
			select {
			case <-ctx.Done():
				t.Fatal("auto-sealer never committed the transaction")
			case <-time.After(2 * time.Millisecond):
			}
		}
	}

	first, err := StartHost(cfg)
	if err != nil {
		t.Fatal(err)
	}
	setup := first.Market.Height()
	sendAndAwait(first, 0)
	sendAndAwait(first, 1)
	if err := first.Close(ctx); err != nil {
		t.Fatalf("close: %v", err)
	}
	height, root := first.Market.Height(), first.Market.Chain.State().Root()
	if height != setup+2 {
		t.Fatalf("height %d after two auto-sealed transfers on top of %d set-up blocks", height, setup)
	}

	second, err := StartHost(cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer second.Close(ctx)
	if got := second.Market.Height(); got != height {
		t.Fatalf("reopened at height %d, closed at %d", got, height)
	}
	if got := second.Market.Chain.State().Root(); got != root {
		t.Fatalf("reopened with root %s, closed with %s", got.Short(), root.Short())
	}
	if second.Market.Registry != first.Market.Registry {
		t.Fatal("reopened host lost the registry address")
	}
	sendAndAwait(second, 2)
	if got := second.Market.Chain.State().Balance(peer.Address()); got != 30 {
		t.Fatalf("peer balance %d after three transfers across a restart, want 30", got)
	}
}
