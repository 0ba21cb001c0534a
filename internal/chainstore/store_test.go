package chainstore

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"pds2/internal/crypto"
	"pds2/internal/identity"
	"pds2/internal/ledger"
	"pds2/internal/telemetry"
)

func testIdentity(seed uint64) *identity.Identity {
	return identity.New("t", crypto.NewDRBGFromUint64(seed, "chainstore-test"))
}

// testChain builds a single-authority chain with n sealed transfer
// blocks and returns it with the actors.
func testChain(t *testing.T, n int) (*ledger.Chain, *identity.Identity, *identity.Identity, *identity.Identity) {
	t.Helper()
	authority, alice, bob := testIdentity(100), testIdentity(1), testIdentity(2)
	chain, err := ledger.NewChain(ledger.ChainConfig{
		Authorities: []identity.Address{authority.Address()},
		GenesisAlloc: map[identity.Address]uint64{
			alice.Address(): 1_000_000,
			bob.Address():   500,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	sealTransfers(t, chain, authority, alice, bob, n)
	return chain, authority, alice, bob
}

// sealTransfers seals n further single-transfer blocks.
func sealTransfers(t *testing.T, chain *ledger.Chain, authority, alice, bob *identity.Identity, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		nonce := chain.State().Nonce(alice.Address())
		tx := ledger.SignTx(alice, bob.Address(), 10, nonce, 50_000, nil)
		if _, err := chain.ProposeBlock(authority, chain.Height()+1, []*ledger.Transaction{tx}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestStoreAppendReopenReplay(t *testing.T) {
	dir := t.TempDir()
	chain, _, _, _ := testChain(t, 5)

	st, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.InitChain(chain); err != nil {
		t.Fatal(err)
	}
	if last, ok := st.LastHeight(); !ok || last != 5 {
		t.Fatalf("LastHeight = %d/%v, want 5", last, ok)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen and rebuild — full replay from genesis (no snapshot yet).
	st2, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	got, err := st2.OpenChain(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Height() != 5 {
		t.Fatalf("reopened height = %d, want 5", got.Height())
	}
	if got.State().Root() != chain.State().Root() {
		t.Fatal("reopened state root diverges")
	}
}

func TestStoreCommitHookPersistsNewSeals(t *testing.T) {
	dir := t.TempDir()
	chain, authority, alice, bob := testChain(t, 2)
	st, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.InitChain(chain); err != nil {
		t.Fatal(err)
	}
	// Blocks sealed after InitChain flow through the commit hook.
	sealTransfers(t, chain, authority, alice, bob, 3)
	if last, _ := st.LastHeight(); last != 5 {
		t.Fatalf("hook missed seals: log at %d, want 5", last)
	}
	st.Close()

	st2, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	got, err := st2.OpenChain(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.State().Root() != chain.State().Root() {
		t.Fatal("state root diverges after hook-driven appends")
	}
}

func TestStoreSnapshotFastSync(t *testing.T) {
	dir := t.TempDir()
	chain, authority, alice, bob := testChain(t, 4)
	st, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.InitChain(chain); err != nil {
		t.Fatal(err)
	}
	if err := st.WriteSnapshot(chain.ExportSnapshot()); err != nil {
		t.Fatal(err)
	}
	// Tail past the snapshot.
	sealTransfers(t, chain, authority, alice, bob, 3)
	st.Close()

	st2, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	got, err := st2.OpenChain(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Base() != 4 {
		t.Fatalf("restored base = %d, want snapshot height 4", got.Base())
	}
	if got.Height() != 7 {
		t.Fatalf("restored height = %d, want 7", got.Height())
	}
	if got.State().Root() != chain.State().Root() {
		t.Fatal("snapshot+tail state root diverges")
	}
}

func TestStoreCrashTruncationRecovery(t *testing.T) {
	dir := t.TempDir()
	chain, _, _, _ := testChain(t, 3)
	st, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.InitChain(chain); err != nil {
		t.Fatal(err)
	}
	st.Close()

	// Simulate a crash mid-append: a torn frame at the end of the
	// active segment (header promising more bytes than exist).
	seg := filepath.Join(dir, "segments", "seg-00000001.log")
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x00, 0x00, 0xFF, 0xFF, 0xAB, 0xCD}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	before, _ := os.Stat(seg)

	st2, err := Open(dir, nil)
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	defer st2.Close()
	if st2.RecoveredBytes() == 0 {
		t.Fatal("recovery did not report truncation")
	}
	after, _ := os.Stat(seg)
	if after.Size() >= before.Size() {
		t.Fatal("torn tail not truncated")
	}
	got, err := st2.OpenChain(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Height() != 3 {
		t.Fatalf("recovered height = %d, want 3", got.Height())
	}
	if got.State().Root() != chain.State().Root() {
		t.Fatal("recovered state diverges")
	}
}

func TestStoreCorruptFrameChecksumTruncated(t *testing.T) {
	dir := t.TempDir()
	chain, _, _, _ := testChain(t, 3)
	st, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.InitChain(chain); err != nil {
		t.Fatal(err)
	}
	st.Close()

	// Flip a byte inside the LAST frame's payload: the checksum fails,
	// recovery drops that block (at-most-one-block loss), and the
	// store reopens at height 2.
	seg := filepath.Join(dir, "segments", "seg-00000001.log")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-2] ^= 0xFF
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir, nil)
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	defer st2.Close()
	if last, _ := st2.LastHeight(); last != 2 {
		t.Fatalf("log at %d after checksum truncation, want 2", last)
	}
	got, err := st2.OpenChain(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Height() != 2 {
		t.Fatalf("recovered height = %d, want 2", got.Height())
	}
}

func TestStoreSegmentRollAndPrune(t *testing.T) {
	dir := t.TempDir()
	chain, authority, alice, bob := testChain(t, 0)
	// Tiny segments force a roll roughly every block.
	st, err := Open(dir, &Options{SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.InitChain(chain); err != nil {
		t.Fatal(err)
	}
	sealTransfers(t, chain, authority, alice, bob, 8)
	stats := st.Stats()
	if stats.Segments < 3 {
		t.Fatalf("segments = %d, want several (roll not happening)", stats.Segments)
	}

	// Two snapshots: pruning keeps segments above the OLDEST retained
	// snapshot, so everything at or below the first snapshot height
	// (8) can go even after the second snapshot lands.
	if err := st.WriteSnapshot(chain.ExportSnapshot()); err != nil {
		t.Fatal(err)
	}
	sealTransfers(t, chain, authority, alice, bob, 2)
	if err := st.WriteSnapshot(chain.ExportSnapshot()); err != nil {
		t.Fatal(err)
	}
	pruned := st.Stats()
	if pruned.Segments >= stats.Segments {
		t.Fatalf("segments did not shrink: %d -> %d", stats.Segments, pruned.Segments)
	}
	st.Close()

	st2, err := Open(dir, &Options{SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	got, err := st2.OpenChain(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Height() != chain.Height() {
		t.Fatalf("height after prune+reopen = %d, want %d", got.Height(), chain.Height())
	}
	if got.State().Root() != chain.State().Root() {
		t.Fatal("state diverges after prune+reopen")
	}
}

func TestStoreRejectsNonContiguousAppend(t *testing.T) {
	dir := t.TempDir()
	chain, _, _, _ := testChain(t, 2)
	st, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	b1, _ := chain.BlockAt(1)
	b2, _ := chain.BlockAt(2)
	if err := st.Append(b1); err != nil {
		t.Fatal(err)
	}
	if err := st.Append(b1); !errors.Is(err, ErrNotContiguous) {
		t.Fatalf("duplicate append: err = %v", err)
	}
	if err := st.Append(b2); err != nil {
		t.Fatal(err)
	}
}

func TestStoreGenesisBinding(t *testing.T) {
	dir := t.TempDir()
	chain, _, _, _ := testChain(t, 1)
	st, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.HasGenesis() {
		t.Fatal("fresh store claims genesis")
	}
	if _, err := st.OpenChain(nil); err == nil {
		t.Fatal("OpenChain on uninitialised store succeeded")
	}
	if err := st.WriteGenesis(chain.ExportConfig()); err != nil {
		t.Fatal(err)
	}
	// Same genesis: idempotent. Different genesis: refused.
	if err := st.WriteGenesis(chain.ExportConfig()); err != nil {
		t.Fatalf("idempotent genesis write failed: %v", err)
	}
	other := chain.ExportConfig()
	other.BlockGasLimit = 123
	if err := st.WriteGenesis(other); err == nil {
		t.Fatal("store accepted a different genesis")
	}
}

func TestStoreMetaRoundTrip(t *testing.T) {
	st, err := Open(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	type meta struct {
		Registry string `json:"registry"`
		Deeds    string `json:"deeds"`
	}
	if err := st.GetMeta(&meta{}); err == nil {
		t.Fatal("GetMeta on empty store succeeded")
	}
	in := meta{Registry: "r", Deeds: "d"}
	if err := st.PutMeta(in); err != nil {
		t.Fatal(err)
	}
	var out meta
	if err := st.GetMeta(&out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("meta round trip: %+v != %+v", out, in)
	}
}

// TestStoreHealthTransitions pins the /healthz component semantics:
// healthy on a working store, degraded once fsync latency crosses the
// threshold, unhealthy on a write error, healthy again after the next
// durable write succeeds, and unhealthy after Close.
func TestStoreHealthTransitions(t *testing.T) {
	dir := t.TempDir()
	chain, _, _, _ := testChain(t, 3)
	st, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Health(); got.State != telemetry.Healthy {
		t.Fatalf("fresh store: %+v", got)
	}
	b1, _ := chain.BlockAt(1)
	b2, _ := chain.BlockAt(2)
	b3, _ := chain.BlockAt(3)
	if err := st.Append(b1); err != nil {
		t.Fatal(err)
	}
	if got := st.Health(); got.State != telemetry.Healthy {
		t.Fatalf("after append: %+v", got)
	}

	// Degraded: pretend the last fsync blew past the threshold.
	st.mu.Lock()
	st.lastFsync = 2 * st.opts.SlowFsyncThreshold
	st.mu.Unlock()
	if got := st.Health(); got.State != telemetry.Degraded {
		t.Fatalf("slow fsync: %+v", got)
	}

	// Unhealthy: fail the underlying file so the next append errors.
	st.mu.Lock()
	st.active.Close()
	st.mu.Unlock()
	if err := st.Append(b2); err == nil {
		t.Fatal("append on closed file succeeded")
	}
	if got := st.Health(); got.State != telemetry.Unhealthy {
		t.Fatalf("write error: %+v", got)
	}

	// Recovery: reopen the active segment; a durable write clears the
	// sticky error.
	st.mu.Lock()
	if err := st.openActive(); err != nil {
		st.mu.Unlock()
		t.Fatal(err)
	}
	st.lastFsync = 0
	st.mu.Unlock()
	if err := st.Append(b2); err != nil {
		t.Fatal(err)
	}
	if err := st.Append(b3); err != nil {
		t.Fatal(err)
	}
	if got := st.Health(); got.State != telemetry.Healthy {
		t.Fatalf("after recovery: %+v", got)
	}

	st.Close()
	if got := st.Health(); got.State != telemetry.Unhealthy {
		t.Fatalf("closed store: %+v", got)
	}
}

func TestStoreBlocksStream(t *testing.T) {
	dir := t.TempDir()
	chain, _, _, _ := testChain(t, 5)
	st, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.InitChain(chain); err != nil {
		t.Fatal(err)
	}
	var heights []uint64
	err = st.Blocks(3, func(b *ledger.Block) error {
		heights = append(heights, b.Header.Height)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{3, 4, 5}
	if len(heights) != len(want) {
		t.Fatalf("heights = %v, want %v", heights, want)
	}
	for i := range want {
		if heights[i] != want[i] {
			t.Fatalf("heights = %v, want %v", heights, want)
		}
	}
}

func TestSnapshotFileIsLedgerEncoding(t *testing.T) {
	// The snapshot file on disk is exactly the ledger encoding: read it
	// back with ledger.ReadSnapshot directly.
	dir := t.TempDir()
	chain, _, _, _ := testChain(t, 2)
	st, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.InitChain(chain); err != nil {
		t.Fatal(err)
	}
	if err := st.WriteSnapshot(chain.ExportSnapshot()); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "snapshots", "snap-000000000002.json"))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := ledger.ReadSnapshot(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if snap.Height() != 2 {
		t.Fatalf("snapshot height = %d", snap.Height())
	}
}

func TestStoreFsyncLatencyObserved(t *testing.T) {
	dir := t.TempDir()
	chain, _, _, _ := testChain(t, 1)
	st, err := Open(dir, &Options{SlowFsyncThreshold: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	b1, _ := chain.BlockAt(1)
	if err := st.Append(b1); err != nil {
		t.Fatal(err)
	}
	// Any real fsync exceeds a nanosecond: the health check degrades.
	if got := st.Health(); got.State != telemetry.Degraded {
		t.Fatalf("nanosecond threshold not tripped: %+v", got)
	}
}

// forgedStore writes a store holding n single-transfer blocks in which
// block h carries a transfer whose value was changed after signing —
// tx root recomputed and the block resealed, so only the signature check
// can catch it. It returns the closed store's directory and the chain
// the genuine blocks came from.
func forgedStore(t *testing.T, n int, h uint64) (string, *ledger.Chain) {
	t.Helper()
	dir := t.TempDir()
	chain, authority, _, _ := testChain(t, n)
	st, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.WriteGenesis(chain.ExportConfig()); err != nil {
		t.Fatal(err)
	}
	for height := uint64(1); height <= uint64(n); height++ {
		b, err := chain.BlockAt(height)
		if err != nil {
			t.Fatal(err)
		}
		if height == h {
			forged := *b
			tx := *b.Txs[0]
			tx.Value++
			forged.Txs = []*ledger.Transaction{&tx}
			forged.Header.TxRoot = ledger.TxRoot(forged.Txs)
			forged.Seal(authority)
			b = &forged
		}
		if err := st.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, chain
}

// TestVerifyChainRejectsForgedBlockMidLog: a forged block deep in a log
// several read-ahead windows long fails the replay at its own height
// with the import's error under the store's usual wrapping.
func TestVerifyChainRejectsForgedBlockMidLog(t *testing.T) {
	const n, h = 50, 23
	dir, _ := forgedStore(t, n, h)
	st, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	const want = "chainstore: replay block 23: ledger: tx 0 invalid: ledger: invalid transaction signature"
	for name, load := range map[string]func(ledger.TxApplier) (*ledger.Chain, error){
		"VerifyChain": st.VerifyChain, "OpenChain": st.OpenChain,
	} {
		chain, err := load(nil)
		if chain != nil || err == nil || err.Error() != want {
			t.Errorf("%s: got (%v, %q), want %q", name, chain, err, want)
		}
		if !errors.Is(err, ledger.ErrTxSignature) {
			t.Errorf("%s: error does not wrap ErrTxSignature: %v", name, err)
		}
	}
}

// frameOffsets returns the offset of every frame in a segment file.
func frameOffsets(t *testing.T, data []byte) []int {
	t.Helper()
	var offs []int
	for off := 0; off < len(data); {
		offs = append(offs, off)
		off += frameHeaderSize + int(binary.BigEndian.Uint32(data[off:off+4]))
	}
	return offs
}

// TestReplaySurfacesReadErrorsUnchanged damages the log after the store
// was opened (so Open's scan cannot repair it) and streams it into a
// fresh chain: every block before the damage commits, and the read or
// decode error comes back as Blocks worded it — not blamed on a block,
// not wrapped as a replay failure.
func TestReplaySurfacesReadErrorsUnchanged(t *testing.T) {
	const n, k = 40, 35 // damage frame k of n
	for _, tc := range []struct {
		name   string
		damage func(frame []byte) // frame = header + payload, edited in place
		want   string
	}{
		{"torn frame", func(frame []byte) { frame[len(frame)-2] ^= 0xFF },
			"chainstore: read seg-00000001.log: frame checksum mismatch"},
		{"valid JSON that is not a block", func(frame []byte) {
			payload := frame[frameHeaderSize:]
			copy(payload, `{"header":{"height":35},"txs":"oops"}`)
			for i := len(`{"header":{"height":35},"txs":"oops"}`); i < len(payload); i++ {
				payload[i] = ' '
			}
			binary.BigEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
		}, "chainstore: decode block in seg-00000001.log: json: cannot unmarshal string into Go struct field Block.txs of type []*ledger.Transaction"},
	} {
		dir := t.TempDir()
		source, _, _, _ := testChain(t, n)
		st, err := Open(dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.InitChain(source); err != nil {
			t.Fatal(err)
		}
		seg := filepath.Join(dir, "segments", "seg-00000001.log")
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		offs := append(frameOffsets(t, data), len(data))
		tc.damage(data[offs[k-1]:offs[k]])
		if err := os.WriteFile(seg, data, 0o644); err != nil {
			t.Fatal(err)
		}

		replica, err := ledger.NewChain(ledger.ChainConfig{
			Authorities:  source.ExportConfig().Authorities,
			GenesisAlloc: source.ExportConfig().GenesisAlloc,
		})
		if err != nil {
			t.Fatal(err)
		}
		rejected, err := replica.ImportStream(func(yield func(*ledger.Block) error) error {
			return st.Blocks(1, yield)
		})
		if rejected != nil || err == nil || err.Error() != tc.want {
			t.Errorf("%s: ImportStream got (%v, %q), want %q", tc.name, rejected, err, tc.want)
		}
		if replica.Height() != k-1 {
			t.Errorf("%s: replica at %d, want the %d blocks before the damage", tc.name, replica.Height(), k-1)
		}
		if _, err := st.VerifyChain(nil); err == nil || err.Error() != tc.want {
			t.Errorf("%s: VerifyChain: %q, want %q", tc.name, err, tc.want)
		}
		st.Close()

		// A reopen sees the damage in the final segment as a crash tail
		// only when the frame fails its checksum; a checksummed frame of
		// valid JSON is kept (Open reads just its height) and still
		// fails the replay, so nothing malformed is ever imported.
		st2, err := Open(dir, nil)
		if err != nil {
			t.Fatalf("%s: reopen: %v", tc.name, err)
		}
		if _, err := st2.VerifyChain(nil); (st2.RecoveredBytes() > 0) != (err == nil) {
			t.Errorf("%s: reopen recovered %d bytes, VerifyChain: %v", tc.name, st2.RecoveredBytes(), err)
		}
		st2.Close()
	}
}

// TestEncodingJSONStoresReopen writes genesis.json and a snapshot with
// the encoding/json calls the store used before it streamed them
// (json.MarshalIndent and json.Encoder), for seeded configs with 0, 1
// and 3 authorities and 0, 1 and 1000 accounts: the store writes the
// same bytes, accepts that genesis as its own, and restores the
// snapshot to the sealed root.
func TestEncodingJSONStoresReopen(t *testing.T) {
	for _, auths := range []int{0, 1, 3} {
		for _, accounts := range []int{0, 1, 1000} {
			t.Run(fmt.Sprintf("auths=%d/accounts=%d", auths, accounts), func(t *testing.T) {
				rng := crypto.NewDRBGFromUint64(uint64(auths*10_000+accounts), "encoding-json-store")
				// With no authorities the chain still needs a sealer; the
				// exported config and snapshot then carry none.
				signers := make([]*identity.Identity, max(auths, 1))
				for i := range signers {
					signers[i] = identity.New("a", rng.Fork(fmt.Sprint("auth", i)))
				}
				var authorities []identity.Address
				if auths > 0 {
					authorities = addressesOf(signers)
				}
				alloc := map[identity.Address]uint64{}
				var funded *identity.Identity
				for i := 0; i < accounts; i++ {
					id := identity.New("u", rng.Fork(fmt.Sprint("acct", i)))
					alloc[id.Address()] = 1_000_000 + uint64(i)
					funded = id
				}
				chain, err := ledger.NewChain(ledger.ChainConfig{Authorities: addressesOf(signers), GenesisAlloc: alloc})
				if err != nil {
					t.Fatal(err)
				}
				for h := uint64(1); h <= 3; h++ {
					var txs []*ledger.Transaction
					if funded != nil {
						txs = append(txs, ledger.SignTx(funded, signers[0].Address(), h, h-1, 50_000, nil))
					}
					key := fmt.Sprintf("<k&%d>\x01\t", h)
					chain.State().SetStorage(signers[0].Address(), key, []byte("<>&"))
					if _, err := chain.ProposeBlock(signers[(h-1)%uint64(len(signers))], h, txs); err != nil {
						t.Fatal(err)
					}
				}
				exp := chain.ExportConfig()
				exp.Authorities = authorities
				snap := chain.ExportSnapshot()
				snap.Authorities = authorities

				// The encoding/json bytes.
				oldDir := t.TempDir()
				genesis, err := json.MarshalIndent(exp, "", " ")
				if err != nil {
					t.Fatal(err)
				}
				var snapJSON bytes.Buffer
				if err := json.NewEncoder(&snapJSON).Encode(snap); err != nil {
					t.Fatal(err)
				}
				if err := os.MkdirAll(filepath.Join(oldDir, "snapshots"), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(oldDir, "genesis.json"), genesis, 0o644); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(oldDir, "snapshots", snapshotName(3)), snapJSON.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}

				// The store writes exactly those bytes.
				newDir := t.TempDir()
				st, err := Open(newDir, nil)
				if err != nil {
					t.Fatal(err)
				}
				defer st.Close()
				if err := st.WriteGenesis(exp); err != nil {
					t.Fatal(err)
				}
				if err := st.WriteSnapshot(snap); err != nil {
					t.Fatal(err)
				}
				for name, want := range map[string][]byte{"genesis.json": genesis, filepath.Join("snapshots", snapshotName(3)): snapJSON.Bytes()} {
					if got, err := os.ReadFile(filepath.Join(newDir, name)); err != nil || !bytes.Equal(got, want) {
						t.Fatalf("%s differs from the encoding/json bytes (err %v)", name, err)
					}
				}

				// A store encoding/json wrote reopens.
				old, err := Open(oldDir, nil)
				if err != nil {
					t.Fatal(err)
				}
				defer old.Close()
				if err := old.WriteGenesis(exp); err != nil {
					t.Fatalf("encoding/json genesis refused: %v", err)
				}
				latest, err := old.LatestSnapshot()
				if err != nil || latest == nil {
					t.Fatalf("encoding/json snapshot not read: %v", err)
				}
				restored, err := ledger.NewChainFromSnapshot(latest, nil)
				if auths == 0 {
					if err == nil {
						t.Fatal("snapshot without authorities restored")
					}
					return
				}
				if err != nil {
					t.Fatal(err)
				}
				if restored.State().Root() != chain.Head().Header.StateRoot {
					t.Fatal("restored root differs from the sealed root")
				}
			})
		}
	}
}

func addressesOf(ids []*identity.Identity) []identity.Address {
	out := make([]identity.Address, len(ids))
	for i, id := range ids {
		out[i] = id.Address()
	}
	return out
}

// TestWriteGenesisAllocation bounds what writing (and re-checking) a
// 100k-account genesis record allocates, by MemStats.TotalAlloc, which
// counts every allocation whatever the collector does. Through
// json.MarshalIndent the write allocated about ten times the file's size
// and left a pooled buffer of the whole document behind.
func TestWriteGenesisAllocation(t *testing.T) {
	const accounts = 100_000
	alloc := make(map[identity.Address]uint64, accounts)
	for i := uint32(0); i < accounts; i++ {
		var a identity.Address
		binary.BigEndian.PutUint32(a[:], i*2654435761)
		alloc[a] = 1_000_000_000 + uint64(i)
	}
	exp := ledger.ChainExport{Authorities: []identity.Address{testIdentity(100).Address()}, GenesisAlloc: alloc}
	dir := t.TempDir()
	st, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for _, call := range []string{"write", "re-check"} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := st.WriteGenesis(exp); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		fi, err := os.Stat(filepath.Join(dir, "genesis.json"))
		if err != nil {
			t.Fatal(err)
		}
		allocated := after.TotalAlloc - before.TotalAlloc
		t.Logf("%s: allocated %d B for a %d B file (%.2fx)", call, allocated, fi.Size(), float64(allocated)/float64(fi.Size()))
		if allocated > 2*uint64(fi.Size()) {
			t.Fatalf("%s allocated %d B, more than twice the %d B file", call, allocated, fi.Size())
		}
	}
}

// TestWriteSnapshotAllocation is TestWriteGenesisAllocation's twin for a
// snapshot of a 100k-account chain at genesis: its genesis allocation
// and its balances, two address maps of 100k entries each, written once.
func TestWriteSnapshotAllocation(t *testing.T) {
	const accounts = 100_000
	alloc := make(map[identity.Address]uint64, accounts)
	for i := uint32(0); i < accounts; i++ {
		var a identity.Address
		binary.BigEndian.PutUint32(a[:], i*2654435761)
		alloc[a] = 1_000_000_000 + uint64(i)
	}
	chain, err := ledger.NewChain(ledger.ChainConfig{
		Authorities:  []identity.Address{testIdentity(100).Address()},
		GenesisAlloc: alloc,
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := chain.ExportSnapshot()
	dir := t.TempDir()
	st, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := st.WriteSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	fi, err := os.Stat(filepath.Join(st.snapshotDir(), snapshotName(snap.Height())))
	if err != nil {
		t.Fatal(err)
	}
	allocated := after.TotalAlloc - before.TotalAlloc
	t.Logf("allocated %d B for a %d B file (%.2fx)", allocated, fi.Size(), float64(allocated)/float64(fi.Size()))
	if allocated > 2*uint64(fi.Size()) {
		t.Fatalf("allocated %d B, more than twice the %d B file", allocated, fi.Size())
	}
}
