package ledger

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"reflect"
	"slices"
	"testing"

	"pds2/internal/crypto"
	"pds2/internal/identity"
)

func TestSnapshotRoundTripAtNonGenesisHeight(t *testing.T) {
	chain, authority, alice, bob := testChain(t)
	for i := uint64(0); i < 6; i++ {
		tx := SignTx(alice, bob.Address(), 10, i, 50_000, nil)
		if _, err := chain.ProposeBlock(authority, i+1, []*Transaction{tx}); err != nil {
			t.Fatal(err)
		}
	}

	snap := chain.ExportSnapshot()
	if snap.Height() != 6 {
		t.Fatalf("snapshot height = %d, want 6", snap.Height())
	}

	// Serialize and parse — the on-disk round trip chainstore performs.
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, snap); err != nil {
		t.Fatal(err)
	}
	parsed, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}

	restored, err := NewChainFromSnapshot(parsed, nil)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Height() != chain.Height() {
		t.Fatalf("restored height %d != %d", restored.Height(), chain.Height())
	}
	if restored.Base() != 6 {
		t.Fatalf("restored base = %d, want 6", restored.Base())
	}
	if restored.State().Root() != chain.State().Root() {
		t.Fatal("restored state root diverges")
	}
	if restored.State().Balance(bob.Address()) != 560 {
		t.Fatalf("bob = %d", restored.State().Balance(bob.Address()))
	}

	// The restored chain keeps sealing in lockstep with the original.
	tx := SignTx(alice, bob.Address(), 5, 6, 50_000, nil)
	orig, err := chain.ProposeBlock(authority, 7, []*Transaction{tx})
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.ImportBlock(orig); err != nil {
		t.Fatalf("restored chain rejects block sealed by original: %v", err)
	}
	if restored.State().Root() != chain.State().Root() {
		t.Fatal("chains diverged after sealing past the snapshot")
	}

	// History below the snapshot is pruned; the head is retained.
	if _, err := restored.BlockAt(3); err == nil {
		t.Fatal("pruned block served")
	}
	if b, err := restored.BlockAt(6); err != nil || b.Header.Height != 6 {
		t.Fatalf("snapshot head unavailable: %v", err)
	}

	// A pruned chain cannot produce a from-genesis export.
	if err := restored.Export(&bytes.Buffer{}); err == nil {
		t.Fatal("export of pruned chain succeeded")
	}
}

func TestSnapshotCorruptedChecksumRejected(t *testing.T) {
	chain, authority, alice, bob := testChain(t)
	for i := uint64(0); i < 3; i++ {
		tx := SignTx(alice, bob.Address(), 10, i, 50_000, nil)
		if _, err := chain.ProposeBlock(authority, i+1, []*Transaction{tx}); err != nil {
			t.Fatal(err)
		}
	}
	snap := chain.ExportSnapshot()

	// Flip one balance: the restored root no longer matches the head
	// block's sealed StateRoot, so the restore must refuse.
	snap.Balances[bob.Address()]++
	if _, err := NewChainFromSnapshot(snap, nil); !errors.Is(err, ErrSnapshotChecksum) {
		t.Fatalf("corrupted snapshot restored: err=%v", err)
	}
}

func TestSnapshotRejectsTamperedHead(t *testing.T) {
	chain, authority, alice, bob := testChain(t)
	tx := SignTx(alice, bob.Address(), 10, 0, 50_000, nil)
	if _, err := chain.ProposeBlock(authority, 1, []*Transaction{tx}); err != nil {
		t.Fatal(err)
	}

	// Tampered seal: mutate the header after sealing.
	snap := chain.ExportSnapshot()
	cp := *snap.Head
	cp.Header.Timestamp++
	snap.Head = &cp
	if _, err := NewChainFromSnapshot(snap, nil); err == nil {
		t.Fatal("snapshot with broken head seal restored")
	}
}

// TestLoadersLeaveNoJournal pins that building genesis and restoring a
// snapshot write no undo journal: both commit at once, and Commit keeps
// the journal's backing array, so one entry per account would stay
// allocated for the life of the chain.
func TestLoadersLeaveNoJournal(t *testing.T) {
	const accounts = 100_000
	alloc := make(map[identity.Address]uint64, accounts)
	for i := uint32(0); i < accounts; i++ {
		var a identity.Address
		binary.BigEndian.PutUint32(a[:], i)
		alloc[a] = uint64(i) + 1
	}
	chain, err := NewChain(ChainConfig{Authorities: []identity.Address{testIdentity(100).Address()}, GenesisAlloc: alloc})
	if err != nil {
		t.Fatal(err)
	}
	if c := cap(chain.State().journal); c != 0 {
		t.Fatalf("NewChain left a journal of capacity %d", c)
	}
	restored, err := NewChainFromSnapshot(chain.ExportSnapshot(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if c := cap(restored.State().journal); c != 0 {
		t.Fatalf("NewChainFromSnapshot left a journal of capacity %d", c)
	}
}

// fuzzReader hands out fuzz bytes, then zeros once they run out.
type fuzzReader []byte

func (r *fuzzReader) bytes(n int) []byte {
	n = min(n, len(*r))
	b := (*r)[:n:n]
	*r = (*r)[n:]
	return b
}

func (r *fuzzReader) byte() byte {
	if b := r.bytes(1); len(b) == 1 {
		return b[0]
	}
	return 0
}

func (r *fuzzReader) uint(n int) uint64 {
	var v uint64
	for i := 0; i < n; i++ {
		v = v<<8 | uint64(r.byte())
	}
	return v
}

// fuzzSnapshot decodes a snapshot from fuzz bytes: a flags byte (bit 0
// drops the head, bits 1–4 make authorities, genesis alloc, balances and
// nonces empty rather than nil, bit 5 an empty storage map; bit 6 gives
// FuzzSnapshotEncoding's config export blocks), a u64 gas
// limit, then records of [op][addr 2 bytes][operands]:
//
//	0 authority   1 genesis alloc u64   2 balance u64   3 nonce u64
//	4 storage [klen][key][vlen u16][value] (vlen 0xffff: nil value)
//	5 slot [b] (odd: nil slot, even: empty slot)
//	6 large storage [klen][key][plen][piece][repeats u16 mod 4096]
func fuzzSnapshot(head *Block, data []byte) *StateSnapshot {
	r := fuzzReader(data)
	flags := r.byte()
	snap := &StateSnapshot{BlockGasLimit: r.uint(8), Head: head}
	if flags&1 != 0 {
		snap.Head = nil
	}
	if flags&2 != 0 {
		snap.Authorities = []identity.Address{}
	}
	amounts := []*map[identity.Address]uint64{&snap.GenesisAlloc, &snap.Balances, &snap.Nonces}
	for i, m := range amounts {
		if flags&(4<<i) != 0 {
			*m = map[identity.Address]uint64{}
		}
	}
	if flags&32 != 0 {
		snap.Storage = map[identity.Address]map[string][]byte{}
	}
	slot := func(a identity.Address) map[string][]byte {
		if snap.Storage == nil {
			snap.Storage = map[identity.Address]map[string][]byte{}
		}
		if snap.Storage[a] == nil {
			snap.Storage[a] = map[string][]byte{}
		}
		return snap.Storage[a]
	}
	for len(r) > 0 {
		op := r.byte() % 7
		a := identity.Address{r.byte(), r.byte()}
		switch op {
		case 0:
			snap.Authorities = append(snap.Authorities, a)
		case 1, 2, 3:
			m := amounts[op-1]
			if *m == nil {
				*m = map[identity.Address]uint64{}
			}
			(*m)[a] = r.uint(8)
		case 4:
			key := string(r.bytes(int(r.byte())))
			var value []byte
			if n := int(r.uint(2)); n != 0xffff {
				value = append([]byte{}, r.bytes(n)...)
			}
			slot(a)[key] = value
		case 5:
			slot(a)
			if r.byte()&1 != 0 {
				snap.Storage[a] = nil
			}
		case 6:
			key := string(r.bytes(int(r.byte())))
			piece := r.bytes(int(r.byte()))
			slot(a)[key] = bytes.Repeat(piece, int(r.uint(2)%4096))
		}
	}
	return snap
}

// fuzzRecord spells one fuzzSnapshot record, for seeds.
func fuzzRecord(op, addr byte, operands ...[]byte) []byte {
	return append([]byte{op, addr, 0}, bytes.Join(operands, nil)...)
}

// FuzzSnapshotEncoding pins the streamed encoders to the encoding/json
// calls they replace: WriteSnapshot must produce exactly
// json.NewEncoder(w).Encode(snap) and WriteConfig exactly
// json.MarshalIndent(exp, "", " "), for any balances, nonces and storage,
// and a snapshot with a head must read back through ReadSnapshot as the
// state it was written from — with storage keys as encoding/json spells
// them, which replaces each invalid UTF-8 byte with U+FFFD.
func FuzzSnapshotEncoding(f *testing.F) {
	chain, authority, alice, bob := testChain(f)
	head, err := chain.ProposeBlock(authority, 1, []*Transaction{SignTx(alice, bob.Address(), 10, 0, 50_000, []byte("<>&\x00"))})
	if err != nil {
		f.Fatal(err)
	}
	u64 := func(v uint64) []byte { return binary.BigEndian.AppendUint64(nil, v) }
	u16 := func(v uint16) []byte { return binary.BigEndian.AppendUint16(nil, v) }
	str := func(s string) []byte { return append([]byte{byte(len(s))}, s...) }
	gas := u64(DefaultBlockGasLimit)
	f.Add([]byte{})
	f.Add(append([]byte{0x3e}, gas...)) // every map empty, not nil
	f.Add(append([]byte{0x01}, gas...)) // no head
	f.Add(bytes.Join([][]byte{{0}, gas,
		fuzzRecord(0, 1), fuzzRecord(0, 2),
		fuzzRecord(1, 3, u64(1)), fuzzRecord(2, 3, u64(0)), fuzzRecord(2, 4, u64(^uint64(0))), fuzzRecord(3, 4, u64(7)),
		fuzzRecord(4, 5, str(""), u16(1), []byte{0}),
		fuzzRecord(4, 5, str("<a href=\"x\">&amp;</a> \t\x01\x7f"), u16(3), []byte("<>&")),
		fuzzRecord(4, 5, str("\xff\xfe"), u16(0)), fuzzRecord(4, 5, str("\xfe"), u16(0xffff)),
		fuzzRecord(4, 6, str("k"), u16(0xffff)),
		fuzzRecord(5, 7, []byte{1}), fuzzRecord(5, 8, []byte{0}),
		fuzzRecord(6, 9, str("big"), str("0123456789abcdef"), u16(4000)),
	}, nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		snap := fuzzSnapshot(head, data)
		var got, want bytes.Buffer
		if err := WriteSnapshot(&got, snap); err != nil {
			t.Fatal(err)
		}
		if err := json.NewEncoder(&want).Encode(snap); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("WriteSnapshot differs from encoding/json:\n got %q\nwant %q", got.Bytes(), want.Bytes())
		}
		exp := ChainExport{Authorities: snap.Authorities, BlockGasLimit: snap.BlockGasLimit, GenesisAlloc: snap.GenesisAlloc}
		if len(data) > 0 && data[0]&64 != 0 {
			exp.Blocks = []*Block{head, nil}
		}
		got.Reset()
		if err := WriteConfig(&got, exp); err != nil {
			t.Fatal(err)
		}
		if oracle, _ := json.MarshalIndent(exp, "", " "); !bytes.Equal(got.Bytes(), oracle) {
			t.Fatalf("WriteConfig differs from encoding/json:\n got %q\nwant %q", got.Bytes(), oracle)
		}
		if snap.Head == nil {
			return
		}
		back, err := ReadSnapshot(&want)
		if err != nil {
			t.Fatal(err)
		}
		checkSnapshotReadBack(t, snap, back)
	})
}

// checkSnapshotReadBack compares a snapshot read back from its encoding
// with the one written: omitempty maps come back nil when empty, and a
// storage key comes back as encoding/json spells it (of two keys spelt
// the same, the later in sorted order wins).
func checkSnapshotReadBack(t *testing.T, snap, back *StateSnapshot) {
	t.Helper()
	orNil := func(m map[identity.Address]uint64) map[identity.Address]uint64 {
		if len(m) == 0 {
			return nil
		}
		return m
	}
	if !reflect.DeepEqual(back.Authorities, snap.Authorities) || back.BlockGasLimit != snap.BlockGasLimit ||
		!reflect.DeepEqual(back.GenesisAlloc, orNil(snap.GenesisAlloc)) ||
		!reflect.DeepEqual(back.Balances, orNil(snap.Balances)) || !reflect.DeepEqual(back.Nonces, orNil(snap.Nonces)) ||
		back.Head.Hash() != snap.Head.Hash() {
		t.Fatal("snapshot header fields or amounts changed across ReadSnapshot")
	}
	var wantStorage map[identity.Address]map[string][]byte
	for a, slot := range snap.Storage {
		if wantStorage == nil {
			wantStorage = map[identity.Address]map[string][]byte{}
		}
		if slot == nil {
			wantStorage[a] = nil
			continue
		}
		keys := make([]string, 0, len(slot))
		for k := range slot {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		spelt := make(map[string][]byte, len(slot))
		for _, k := range keys {
			var s string
			b, _ := json.Marshal(k)
			if err := json.Unmarshal(b, &s); err != nil {
				t.Fatal(err)
			}
			spelt[s] = slot[k]
		}
		wantStorage[a] = spelt
	}
	if !reflect.DeepEqual(back.Storage, wantStorage) {
		t.Fatalf("storage changed across ReadSnapshot:\n got %q\nwant %q", back.Storage, wantStorage)
	}
}

// crowdedAddrs returns n distinct addresses: mostly hashes, plus runs of
// addresses that share their leading 16 bits and then differ only in
// bytes 2–7, only in bytes 8–15 or only in bytes 16–19, so every part of
// an address decides some order.
func crowdedAddrs(n int) []identity.Address {
	seen := make(map[identity.Address]bool, n)
	addrs := make([]identity.Address, 0, n)
	for i := uint64(0); len(addrs) < n; i++ {
		d := crypto.HashBytes(binary.BigEndian.AppendUint64(nil, i))
		var a identity.Address
		copy(a[:], d[:])
		if i%25 == 0 { // 4 % of the addresses, in 8 crowded prefixes
			a[0], a[1] = 0xab, byte(i/25%8)
			switch from := []int{2, 8, 16}[i/200%3]; from {
			case 8:
				copy(a[2:8], "crowd!")
			case 16:
				copy(a[2:16], "crowded prefix")
			}
		}
		if !seen[a] {
			seen[a] = true
			addrs = append(addrs, a)
		}
	}
	return addrs
}

// TestWriteLargeAmountsMatchesEncodingJSON checks the streaming writer
// against encoding/json at 100k addresses, where its address sort works
// on full prefix groups; FuzzSnapshotEncoding covers small maps.
func TestWriteLargeAmountsMatchesEncodingJSON(t *testing.T) {
	addrs := crowdedAddrs(100_000)
	alloc := make(map[identity.Address]uint64, len(addrs))
	nonces := make(map[identity.Address]uint64)
	for i, a := range addrs {
		alloc[a] = uint64(i) * 7919
		if i%3 == 0 {
			nonces[a] = uint64(i % 17)
		}
	}
	alloc[addrs[1]] = ^uint64(0)
	auth := []identity.Address{addrs[0]}

	exp := ChainExport{Authorities: auth, BlockGasLimit: DefaultBlockGasLimit, GenesisAlloc: alloc}
	var got bytes.Buffer
	if err := WriteConfig(&got, exp); err != nil {
		t.Fatal(err)
	}
	if want, _ := json.MarshalIndent(exp, "", " "); !bytes.Equal(got.Bytes(), want) {
		t.Fatal("WriteConfig differs from json.MarshalIndent at 100k addresses")
	}

	snap := &StateSnapshot{Authorities: auth, BlockGasLimit: DefaultBlockGasLimit, GenesisAlloc: alloc,
		Head: &Block{}, Balances: alloc, Nonces: nonces}
	got.Reset()
	if err := WriteSnapshot(&got, snap); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(snap); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("WriteSnapshot differs from encoding/json at 100k addresses")
	}
}
