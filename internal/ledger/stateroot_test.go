package ledger

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"slices"
	"sync"
	"testing"

	"pds2/internal/crypto"
	"pds2/internal/identity"
)

// specRoot computes the state commitment straight from its definition
// (stateroot.go's header comment) over plain maps: encode every record,
// bucket by SHA-256 of the key part, sort each bucket by key bytes, fold
// the bucket digests pairwise. It shares no code with State.Root beyond
// the crypto package's Merkle and hash primitives.
func specRoot(balances, nonces map[identity.Address]uint64, storage map[identity.Address]map[string][]byte) crypto.Digest {
	type record struct{ key, leaf []byte }
	buckets := make([][]record, stateBuckets)
	add := func(key, value []byte) {
		h := sha256.Sum256(key)
		b := int(h[0])<<8 | int(h[1])
		b >>= 16 - stateBucketBits
		buckets[b] = append(buckets[b], record{key, append(append([]byte(nil), key...), value...)})
	}
	for a, v := range balances {
		add(append([]byte{'B'}, a[:]...), binary.BigEndian.AppendUint64(nil, v))
	}
	for a, v := range nonces {
		add(append([]byte{'N'}, a[:]...), binary.BigEndian.AppendUint64(nil, v))
	}
	for a, slot := range storage {
		for k, v := range slot {
			key := binary.BigEndian.AppendUint64(append([]byte{'S'}, a[:]...), uint64(len(k)))
			add(append(key, k...), v)
		}
	}
	level := make([]crypto.Digest, stateBuckets)
	for b, recs := range buckets {
		slices.SortFunc(recs, func(x, y record) int { return bytes.Compare(x.key, y.key) })
		leaves := make([][]byte, len(recs))
		for i, r := range recs {
			leaves[i] = r.leaf
		}
		level[b] = crypto.MerkleRootOf(leaves)
	}
	for len(level) > 1 {
		next := make([]crypto.Digest, len(level)/2)
		for i := range next {
			if l, r := level[2*i], level[2*i+1]; !l.IsZero() || !r.IsZero() {
				next[i] = crypto.HashConcat([]byte{0x02}, l[:], r[:])
			}
		}
		level = next
	}
	return level[0]
}

// checkCommitment asserts the three-way identity the commitment rests
// on: the maps hold live records only, the buckets hold exactly those
// records, and the incrementally maintained root equals both the
// definition and a fresh State loaded with the same contents.
func checkCommitment(t *testing.T, st *State) {
	t.Helper()
	got := st.Root()
	live := len(st.balances) + len(st.nonces)
	for a, v := range st.balances {
		if v == 0 {
			t.Fatalf("zero balance kept for %s", a.Short())
		}
	}
	for a, v := range st.nonces {
		if v == 0 {
			t.Fatalf("zero nonce kept for %s", a.Short())
		}
	}
	for a, slot := range st.storage {
		if len(slot) == 0 {
			t.Fatalf("empty storage slot kept for %s", a.Short())
		}
		for k, v := range slot {
			if len(v) == 0 {
				t.Fatalf("empty storage value kept for %s/%q", a.Short(), k)
			}
		}
		live += len(slot)
	}
	if members := checkLevels(t, st); members != live {
		t.Fatalf("commitment holds %d records, maps hold %d", members, live)
	}
	if want := specRoot(st.balances, st.nonces, st.storage); got != want {
		t.Fatalf("incremental root %s, definition gives %s", got.Short(), want.Short())
	}
	fresh := NewState()
	for a, v := range st.balances {
		fresh.SetBalance(a, v)
	}
	for a, v := range st.nonces {
		fresh.SetNonce(a, v)
	}
	for a, slot := range st.storage {
		for k, v := range slot {
			fresh.SetStorage(a, k, v)
		}
	}
	if want := fresh.Root(); got != want {
		t.Fatalf("incremental root %s, from-scratch build gives %s", got.Short(), want.Short())
	}
}

// checkLevels asserts, with no write pending, that every bucket's cached
// interior levels and digest are what its records hash to now — a stale
// node under a root that happens to be right would surface only at the
// next write through it — and that its slices are exact-size. It returns
// the number of records the buckets hold.
func checkLevels(t *testing.T, st *State) (members int) {
	t.Helper()
	for b, bk := range st.buckets {
		members += len(bk.keys)
		level := make([]crypto.Digest, len(bk.keys))
		for i, k := range bk.keys {
			rec, live := st.appendRecord(nil, k)
			if !live {
				t.Fatalf("bucket %d holds dead record %q", b, rec)
			}
			level[i] = crypto.MerkleLeaf(rec)
		}
		var want []crypto.Digest
		for len(level) > 1 {
			var next []crypto.Digest
			for i := 0; i+1 < len(level); i += 2 {
				next = append(next, crypto.MerkleNode(level[i], level[i+1]))
			}
			if len(level)%2 == 1 {
				next = append(next, level[len(level)-1])
			}
			want = append(want, next...)
			level = next
		}
		if !slices.Equal(bk.levels, want) {
			t.Fatalf("bucket %d (%d records): cached levels differ from a rebuild", b, len(bk.keys))
		}
		digest := crypto.ZeroDigest
		if len(level) == 1 {
			digest = level[0]
		}
		if st.nodes[stateBuckets+b] != digest {
			t.Fatalf("bucket %d digest differs from a rebuild", b)
		}
		if cap(bk.keys) > len(bk.keys) || cap(bk.levels) > len(bk.levels) {
			t.Fatalf("bucket %d over-allocated: keys %d/%d, levels %d/%d",
				b, len(bk.keys), cap(bk.keys), len(bk.levels), cap(bk.levels))
		}
	}
	return members
}

// TestStateMapsHoldLiveRecordsOnly pins that zero writes and reverted
// first writes leave nothing behind — in the maps or in the commitment.
func TestStateMapsHoldLiveRecordsOnly(t *testing.T) {
	st := NewState()
	a, fresh, c := testAddr(1), testAddr(2), testAddr(3)
	empty := st.Root()

	// Drain to zero, root, then refund.
	st.SetBalance(a, 10)
	st.SetNonce(a, 1)
	st.SetStorage(c, "k", []byte("v"))
	st.Commit()
	checkCommitment(t, st)
	st.SetBalance(a, 0)
	st.SetNonce(a, 0)
	st.SetStorage(c, "k", nil)
	st.Commit()
	checkCommitment(t, st)
	if n := len(st.balances) + len(st.nonces) + len(st.storage); n != 0 {
		t.Fatalf("drained state keeps %d map entries", n)
	}
	if st.Root() != empty || !empty.IsZero() {
		t.Fatalf("drained state root %s, empty root %s", st.Root().Short(), empty.Short())
	}
	st.SetBalance(a, 7)
	st.Commit()
	checkCommitment(t, st)

	// Revert of a first-ever credit, nonce and storage write — once with
	// the root taken mid-journal (VerifyBlock), once not.
	for _, rootMidJournal := range []bool{false, true} {
		before := st.Root()
		snap := st.Snapshot()
		st.SetBalance(fresh, 5)
		st.BumpNonce(fresh)
		st.SetStorage(fresh, "first", []byte("x"))
		if rootMidJournal && st.Root() == before {
			t.Fatal("root ignored uncommitted writes")
		}
		st.RevertTo(snap)
		checkCommitment(t, st)
		if st.Root() != before {
			t.Fatalf("root moved across a reverted span (mid-journal root: %v)", rootMidJournal)
		}
		if len(st.balances) != 1 || len(st.nonces) != 0 || len(st.storage) != 0 {
			t.Fatalf("revert left %d balances, %d nonces, %d slots",
				len(st.balances), len(st.nonces), len(st.storage))
		}
	}
	if got := st.Accounts(); len(got) != 1 || got[0] != a {
		t.Fatalf("Accounts() = %v, want just %s", got, a.Short())
	}
}

// FuzzStateRoot interprets its input as a program of state operations —
// set, zero, storage write and delete, snapshot, revert, commit, and a
// Root() taken mid-journal — and demands that the incrementally
// maintained commitment ends equal to the definition and to a fresh
// State loaded with the final contents.
func FuzzStateRoot(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 5, 1, 1, 0, 2, 1, 9, 7, 0, 0, 0, 1, 0})
	f.Add([]byte{2, 0, 3, 4, 0, 0, 2, 0, 4, 7, 0, 0, 5, 0, 0, 7, 0, 0, 3, 0, 0})
	f.Add([]byte{4, 0, 0, 0, 2, 8, 1, 2, 0, 2, 2, 6, 7, 0, 0, 5, 0, 0, 0, 2, 0, 6, 0, 0, 7, 0, 0})
	rng := crypto.NewDRBGFromUint64(13, "state-root-fuzz")
	f.Add(rng.Bytes(900))
	f.Add(rng.Bytes(3000))
	// One bucket shared by addrs[0]'s balance and its storage keys 5–7
	// (second byte 40, 48, 56; see below). Three records there, then an update,
	// an insert and a delete among them folded by one Root:
	shared := []byte{0, 0, 5, 3, 40, 3, 3, 48, 4, 1, 0, 2, 6, 0, 0, 7, 0, 0}
	f.Add(append(shared[:len(shared):len(shared)], 0, 0, 9, 3, 56, 2, 3, 40, 0, 7, 0, 0, 0, 0, 8, 7, 0, 0))
	// the same writes with the Root taken inside a span that is then
	// reverted (so the cached levels must be walked back), then value-only
	// writes through the restored levels;
	f.Add(append(shared[:len(shared):len(shared)], 4, 0, 0, 0, 0, 9, 3, 56, 2, 3, 40, 0, 7, 0, 0, 5, 0, 0, 7, 0, 0, 3, 48, 1, 0, 0, 7, 7, 0, 0))
	// and deletes that shrink the bucket to one record, then to none, then
	// refill it.
	f.Add(append(shared[:len(shared):len(shared)], 3, 40, 0, 3, 48, 0, 7, 0, 0, 0, 0, 0, 7, 0, 0, 3, 56, 1, 0, 0, 1, 7, 0, 0))

	addrs := make([]identity.Address, 8)
	for i := range addrs {
		addrs[i] = testAddr(uint64(100 + i))
	}
	// Keys of several lengths: the in-bucket order puts the length first.
	// The last three are searched for: storage keys of addrs[0] that land
	// in the bucket of addrs[0]'s balance record, so a program can put
	// several records of one bucket into one flush.
	keys := []string{"k", "kk", "a/long/key", "z", ""}
	bucketOf := func(k recKey) uint16 {
		h := sha256.Sum256(k.appendTo(nil))
		return binary.BigEndian.Uint16(h[:]) >> (16 - stateBucketBits)
	}
	for i, home := 0, bucketOf(recKey{kind: recBalance, addr: addrs[0]}); len(keys) < 8; i++ {
		if k := fmt.Sprint("shared/", i); bucketOf(recKey{kind: recStorage, addr: addrs[0], key: k}) == home {
			keys = append(keys, k)
		}
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		st := NewState()
		var snaps []int
		for ; len(prog) >= 3; prog = prog[3:] {
			a, v := addrs[int(prog[1])%len(addrs)], prog[2]
			switch prog[0] % 8 {
			case 0:
				st.SetBalance(a, uint64(v)) // v == 0 is the zero write
			case 1:
				st.SetNonce(a, uint64(v))
			case 2:
				st.BumpNonce(a)
			case 3:
				var val []byte // v == 0 is the delete
				if v != 0 {
					val = bytes.Repeat([]byte{v}, int(v)%5+1)
				}
				st.SetStorage(a, keys[int(prog[1]/8)%len(keys)], val)
			case 4:
				snaps = append(snaps, st.Snapshot())
			case 5:
				if len(snaps) > 0 {
					i := int(v) % len(snaps)
					st.RevertTo(snaps[i])
					snaps = snaps[:i]
				}
			case 6:
				st.Commit()
				snaps = snaps[:0]
			case 7:
				st.Root()
				checkLevels(t, st)
			}
		}
		checkCommitment(t, st)
	})
}

// TestStateRootConcurrentReaders is the -race case for Root as a
// mutator of cached state: primitive readers hammer the state while the
// one writer applies transfers, reverts some of them and takes the root
// every round, as a sealer does.
func TestStateRootConcurrentReaders(t *testing.T) {
	st := NewState()
	addrs := make([]identity.Address, 64)
	for i := range addrs {
		addrs[i] = testAddr(uint64(i))
		st.SetBalance(addrs[i], 1_000_000)
	}
	contract := testAddr(1000)
	st.Commit()
	st.Root()

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for i := r; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				a := addrs[i%len(addrs)]
				_ = st.Balance(a)
				_ = st.Nonce(a)
				_ = st.GetStorage(contract, "last")
				_ = st.StorageKeys(contract, "")
			}
		}(r)
	}
	applier := TransferApplier{}
	for round := 0; round < 200; round++ {
		snap := st.Snapshot()
		for j := 0; j < 8; j++ {
			from, to := addrs[(round+j)%len(addrs)], addrs[(round*7+j+1)%len(addrs)]
			tx := &Transaction{From: from, To: to, Value: uint64(j + 1), Nonce: st.Nonce(from)}
			if _, err := applier.Apply(st, tx, uint64(round+1)); err != nil {
				t.Fatal(err)
			}
		}
		st.SetStorage(contract, "last", []byte{byte(round), 1})
		st.Root()
		if round%3 == 0 {
			st.RevertTo(snap)
			st.Root()
		}
		st.Commit()
	}
	close(stop)
	readers.Wait()
	checkCommitment(t, st)
}

// benchAddrs returns n distinct deterministic addresses.
func benchAddrs(n int) []identity.Address {
	addrs := make([]identity.Address, n)
	for i := range addrs {
		d := crypto.HashBytes(binary.BigEndian.AppendUint64(nil, uint64(i)))
		copy(addrs[i][:], d[:])
	}
	return addrs
}

var rootSink crypto.Digest

// BenchmarkStateRoot measures one Root() after a block's worth of
// writes — 150 touched records, a 50-transfer block — at three state
// sizes, and the from-scratch build every genesis and snapshot restore
// pays once.
func BenchmarkStateRoot(b *testing.B) {
	funded := func(addrs []identity.Address) *State {
		st := NewState()
		for _, a := range addrs {
			st.SetBalance(a, 1_000_000)
		}
		st.Commit()
		return st
	}
	for _, n := range []int{10_000, 100_000, 1_000_000} {
		addrs := benchAddrs(n)
		b.Run(fmt.Sprintf("accounts=%d/touched=150", n), func(b *testing.B) {
			st := funded(addrs)
			st.Root()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < 150; j++ {
					st.SetBalance(addrs[(i*150+j)*7919%n], uint64(i+2))
				}
				st.Commit()
				rootSink = st.Root()
			}
		})
		if n > 100_000 {
			continue
		}
		b.Run(fmt.Sprintf("accounts=%d/build", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				st := funded(addrs)
				b.StartTimer()
				rootSink = st.Root()
			}
		})
	}
}

// largeRound applies round r of a seeded history to st: round 0 funds
// 30k accounts, gives half of them nonces and 150 contracts 40 storage
// keys each (≈ 51k records); round 1 updates, drains and zeroes balances
// and nonces, deletes, adds and rewrites storage and reverts a span;
// round 2 empties 30 contracts, refunds drained accounts and funds 5k
// new ones. The same (st, r) always gets the same writes.
func largeRound(st *State, r int) {
	rng := rand.New(rand.NewPCG(0x1a59e, uint64(r)))
	acct := func(i int) identity.Address {
		var a identity.Address
		d := crypto.HashBytes(binary.BigEndian.AppendUint64([]byte("acct"), uint64(i)))
		copy(a[:], d[:])
		return a
	}
	contract := func(i int) identity.Address { return acct(1_000_000 + i) }
	value := func() []byte {
		v := make([]byte, 1+rng.IntN(40))
		for i := range v {
			v[i] = byte(rng.Uint32())
		}
		return v
	}
	key := func() string { return fmt.Sprintf("k/%d", rng.IntN(60)) }
	switch r {
	case 0:
		for i := 0; i < 30_000; i++ {
			st.SetBalance(acct(i), 1+rng.Uint64N(1<<40))
			if i%2 == 0 {
				st.SetNonce(acct(i), 1+rng.Uint64N(100))
			}
		}
		for i := 30_000; i < 30_500; i++ {
			st.SetBalance(acct(i), 0) // a zero write leaves no record
		}
		for c := 0; c < 150; c++ {
			for k := 0; k < 40; k++ {
				st.SetStorage(contract(c), fmt.Sprintf("k/%d", k), value())
			}
		}
	case 1:
		for j := 0; j < 8_000; j++ {
			st.SetBalance(acct(rng.IntN(30_000)), 1+rng.Uint64N(1<<40))
		}
		for j := 0; j < 3_000; j++ {
			st.SetBalance(acct(rng.IntN(30_000)), 0)
		}
		for j := 0; j < 4_000; j++ {
			st.BumpNonce(acct(rng.IntN(30_000)))
		}
		for j := 0; j < 1_000; j++ {
			st.SetNonce(acct(rng.IntN(30_000)), 0)
		}
		for j := 0; j < 3_500; j++ {
			c := contract(rng.IntN(150))
			switch j % 7 {
			case 0, 1, 2:
				st.SetStorage(c, key(), nil)
			default:
				st.SetStorage(c, key(), value())
			}
		}
		snap := st.Snapshot()
		for j := 0; j < 500; j++ {
			st.SetBalance(acct(rng.IntN(31_000)), rng.Uint64N(3))
			st.SetStorage(contract(rng.IntN(160)), key(), value())
		}
		st.RevertTo(snap)
	case 2:
		for c := 0; c < 30; c++ {
			for _, k := range st.StorageKeys(contract(c), "") {
				st.SetStorage(contract(c), k, nil)
			}
		}
		for j := 0; j < 2_000; j++ {
			if a := acct(rng.IntN(30_000)); st.Balance(a) == 0 {
				st.SetBalance(a, 1+rng.Uint64N(1000))
			}
		}
		for i := 40_000; i < 45_000; i++ {
			st.SetBalance(acct(i), 1+rng.Uint64N(1000))
		}
	}
	st.Commit()
}

// TestStateRootLargeSeeded runs a seeded history over a state of ≥ 50k
// records — large enough that every flush crosses any size-dependent
// path — once flushing over one worker and once over four, and checks
// after each round that both give the same root and that each commitment
// holds.
func TestStateRootLargeSeeded(t *testing.T) {
	one, four := NewState(), NewState()
	for r := 0; r < 3; r++ {
		largeRound(one, r)
		largeRound(four, r)
		if got, want := rootWith(four, 4), rootWith(one, 1); got != want {
			t.Fatalf("round %d: four workers give root %s, one gives %s", r, got.Short(), want.Short())
		}
		checkCommitment(t, one)
		checkCommitment(t, four)
		if r == 0 {
			n := len(one.balances) + len(one.nonces)
			for _, slot := range one.storage {
				n += len(slot)
			}
			if n < 50_000 {
				t.Fatalf("round 0 holds %d records, want ≥ 50k", n)
			}
		}
	}
}

// rootWith is Root with the flush spread over the given number of
// workers whatever the number of pending writes.
func rootWith(st *State, workers int) crypto.Digest {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.flushWith(workers)
	return st.nodes[1]
}
