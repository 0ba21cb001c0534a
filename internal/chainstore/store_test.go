package chainstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
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
