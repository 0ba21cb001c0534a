package proptest

import (
	"fmt"
	"reflect"
	"testing"

	"pds2/internal/crypto"
	"pds2/internal/ledger"
	"pds2/internal/market"
)

// importOutcome is everything one way of importing an export leaves
// behind that consensus or an auditor can see.
type importOutcome struct {
	Height   uint64
	Root     crypto.Digest
	Receipts []*ledger.Receipt // of every transaction in the accepted blocks, in chain order
	Events   []ledger.Event
	FailedAt uint64 // header height of the rejected block, 0 if none
	Err      string
}

// importExport replays an export on a fresh replica either through one
// ImportStream over all of it (pure checks running up to a window ahead
// of execution) or block at a time through ImportBlock (no read-ahead).
func importExport(data []byte, streamed bool) (importOutcome, error) {
	var out importOutcome
	exp, err := decodeExport(data)
	if err != nil {
		return out, err
	}
	rt, err := market.NewRuntime()
	if err != nil {
		return out, err
	}
	chain, err := newReplica(exp, rt)
	if err != nil {
		return out, err
	}
	var rejected *ledger.Block
	if streamed {
		rejected, err = chain.ImportStream(ledger.BlocksOf(exp.Blocks...))
	} else {
		for _, b := range exp.Blocks {
			if err = chain.ImportBlock(b); err != nil {
				rejected = b
				break
			}
		}
	}
	if err != nil {
		if rejected == nil {
			return out, fmt.Errorf("import failed without blaming a block: %w", err)
		}
		out.FailedAt, out.Err = rejected.Header.Height, err.Error()
	}
	out.Height, out.Root, out.Events = chain.Height(), chain.State().Root(), chain.Events("")
	for h := uint64(1); h <= chain.Height(); h++ {
		b, err := chain.BlockAt(h)
		if err != nil {
			return out, err
		}
		for _, tx := range b.Txs {
			rcpt, ok := chain.Receipt(tx.Hash())
			if !ok {
				return out, fmt.Errorf("no receipt for tx %s in block %d", tx.Hash().Short(), h)
			}
			out.Receipts = append(out.Receipts, rcpt)
		}
	}
	return out, nil
}

// checkStreamMatchesSingle demands that read-ahead is invisible: same
// height, root, receipts, event order, rejected block and error text.
func checkStreamMatchesSingle(t *testing.T, name string, data []byte, wantRejection bool) {
	t.Helper()
	single, err := importExport(data, false)
	if err != nil {
		t.Fatalf("%s: block-at-a-time: %v", name, err)
	}
	streamed, err := importExport(data, true)
	if err != nil {
		t.Fatalf("%s: streamed: %v", name, err)
	}
	if !reflect.DeepEqual(single, streamed) {
		t.Errorf("%s: streamed import diverged from block-at-a-time:\n single   height %d root %s failed at %d: %s\n streamed height %d root %s failed at %d: %s\n (%d vs %d receipts, %d vs %d events)",
			name, single.Height, single.Root.Short(), single.FailedAt, single.Err,
			streamed.Height, streamed.Root.Short(), streamed.FailedAt, streamed.Err,
			len(single.Receipts), len(streamed.Receipts), len(single.Events), len(streamed.Events))
	}
	if (single.Err != "") != wantRejection {
		t.Errorf("%s: rejection = %q, want rejected = %v", name, single.Err, wantRejection)
	}
}

// TestStreamImportMatchesBlockAtATime is the differential check for the
// verify-ahead pipeline, over seeded histories and over every forgery
// row the detection sweep uses.
func TestStreamImportMatchesBlockAtATime(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 11} {
		res, err := RunSeed(seed, smokeOps)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		data, err := ExportMarket(res.Market)
		if err != nil {
			t.Fatalf("seed %d export: %v", seed, err)
		}
		checkStreamMatchesSingle(t, fmt.Sprintf("seed %d", seed), data, false)
		if seed != 11 {
			continue
		}
		for _, kind := range Corruptions {
			for cseed := uint64(0); cseed < 3; cseed++ {
				bad, err := CorruptExport(data, kind, cseed)
				if err != nil {
					t.Fatalf("%s seed %d: %v", kind, cseed, err)
				}
				checkStreamMatchesSingle(t, fmt.Sprintf("%s seed %d", kind, cseed), bad, true)
			}
		}
		flatForgery, err := ForgeFlatRootBlock(res.Market, res.Authority, res.Sender)
		if err != nil {
			t.Fatal(err)
		}
		for name, blk := range map[string]*ledger.Block{
			"forged-skipped-nonce":  ForgeSkippedNonceBlock(res.Market, res.Authority, res.Sender),
			"forged-balance-claim":  ForgeBalanceClaimBlock(res.Market, res.Authority, res.Sender),
			"forged-flat-root":      flatForgery,
			"forged-unverified-sig": ForgeUnverifiedSigBlock(res.Market, res.Authority, res.Sender),
		} {
			bad, err := AppendForgedBlock(data, blk)
			if err != nil {
				t.Fatal(err)
			}
			checkStreamMatchesSingle(t, name, bad, true)
		}
	}
}
