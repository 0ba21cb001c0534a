package ledger

import (
	"bytes"
	"math/rand/v2"
	"slices"
	"testing"

	"pds2/internal/crypto"
	"pds2/internal/identity"
)

// TestStateJournalAgainstReferenceModel drives the journaled state with
// random operation sequences interleaved with snapshots and reverts, and
// checks it against a plain map-based reference model at every step.
// This is the property that makes contract revert semantics sound.
func TestStateJournalAgainstReferenceModel(t *testing.T) {
	rng := crypto.NewDRBGFromUint64(1, "state-model")
	addrs := make([]identity.Address, 4)
	for i := range addrs {
		addrs[i] = identity.New("a", rng.Fork("addr")).Address()
	}
	keys := []string{"k1", "k2", "w/1"}

	type model struct {
		bal     map[identity.Address]uint64
		nonce   map[identity.Address]uint64
		storage map[identity.Address]map[string][]byte
	}
	clone := func(m model) model {
		out := model{
			bal:     map[identity.Address]uint64{},
			nonce:   map[identity.Address]uint64{},
			storage: map[identity.Address]map[string][]byte{},
		}
		for k, v := range m.bal {
			out.bal[k] = v
		}
		for k, v := range m.nonce {
			out.nonce[k] = v
		}
		for a, slot := range m.storage {
			out.storage[a] = map[string][]byte{}
			for k, v := range slot {
				out.storage[a][k] = append([]byte(nil), v...)
			}
		}
		return out
	}
	check := func(st *State, m model, step int) {
		for _, a := range addrs {
			if st.Balance(a) != m.bal[a] {
				t.Fatalf("step %d: balance[%s] = %d, want %d", step, a.Short(), st.Balance(a), m.bal[a])
			}
			if st.Nonce(a) != m.nonce[a] {
				t.Fatalf("step %d: nonce[%s] = %d, want %d", step, a.Short(), st.Nonce(a), m.nonce[a])
			}
			for _, k := range keys {
				got := st.GetStorage(a, k)
				want := m.storage[a][k]
				if !bytes.Equal(got, want) {
					t.Fatalf("step %d: storage[%s][%s] = %q, want %q", step, a.Short(), k, got, want)
				}
			}
		}
	}

	st := NewState()
	cur := model{
		bal:     map[identity.Address]uint64{},
		nonce:   map[identity.Address]uint64{},
		storage: map[identity.Address]map[string][]byte{},
	}
	type snap struct {
		journal int
		model   model
	}
	var snaps []snap

	for step := 0; step < 3000; step++ {
		a := addrs[rng.Intn(len(addrs))]
		switch rng.Intn(7) {
		case 0:
			v := rng.Uint64() % 1000
			st.SetBalance(a, v)
			cur.bal[a] = v
		case 1:
			st.BumpNonce(a)
			cur.nonce[a]++
		case 2:
			k := keys[rng.Intn(len(keys))]
			v := rng.Bytes(1 + rng.Intn(8))
			st.SetStorage(a, k, v)
			if cur.storage[a] == nil {
				cur.storage[a] = map[string][]byte{}
			}
			cur.storage[a][k] = v
		case 3:
			k := keys[rng.Intn(len(keys))]
			st.SetStorage(a, k, nil) // delete
			delete(cur.storage[a], k)
		case 4:
			snaps = append(snaps, snap{journal: st.Snapshot(), model: clone(cur)})
		case 5:
			if len(snaps) > 0 {
				i := rng.Intn(len(snaps))
				st.RevertTo(snaps[i].journal)
				cur = clone(snaps[i].model)
				snaps = snaps[:i] // deeper snapshots are invalidated
			}
		case 6:
			if rng.Intn(4) == 0 { // commit occasionally
				st.Commit()
				snaps = snaps[:0]
			}
		}
		if step%50 == 0 {
			check(st, cur, step)
		}
	}
	check(st, cur, 3000)
}

// TestCompareAddrMatchesBytes checks that compareAddr, which compares an
// address as three big-endian words, agrees with bytes.Compare on random
// pairs, on pairs that differ in one byte at every position, and on
// equal pairs.
func TestCompareAddrMatchesBytes(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	random := func() (a identity.Address) {
		for i := range a {
			a[i] = byte(rng.Uint32())
		}
		return a
	}
	for i := 0; i < 100_000; i++ {
		a, b := random(), random()
		switch i % 3 {
		case 1:
			b = a
			b[rng.IntN(len(b))] = byte(rng.Uint32())
		case 2:
			b = a
		}
		if got, want := compareAddr(a, b), bytes.Compare(a[:], b[:]); got != want {
			t.Fatalf("compareAddr(%x, %x) = %d, bytes.Compare gives %d", a, b, got, want)
		}
	}
}

// TestSortedAmountsOrder checks the genesis writer's counting sort
// against a comparison sort at sizes from one entry to past the 16-bit
// prefix, with a third of the addresses crowded onto the lowest, the
// highest and a middle prefix.
func TestSortedAmountsOrder(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 5))
	for _, n := range []int{1, 2, 3, 5, 17, 256, 1000, 70_000} {
		m := make(map[identity.Address]uint64, n)
		for len(m) < n {
			var a identity.Address
			for i := range a {
				a[i] = byte(rng.Uint32())
			}
			if rng.IntN(3) == 0 {
				p := []uint16{0x0000, 0xffff, 0x8000}[rng.IntN(3)]
				a[0], a[1] = byte(p>>8), byte(p)
			}
			m[a] = rng.Uint64()
		}
		want := make([]identity.Address, 0, n)
		for a := range m {
			want = append(want, a)
		}
		slices.SortFunc(want, func(a, b identity.Address) int { return bytes.Compare(a[:], b[:]) })
		got := sortedAmounts(m)
		if len(got) != n {
			t.Fatalf("n=%d: %d entries", n, len(got))
		}
		for i, e := range got {
			if e.addr != want[i] || e.v != m[e.addr] {
				t.Fatalf("n=%d: entry %d is %x=%d, want %x=%d", n, i, e.addr, e.v, want[i], m[want[i]])
			}
		}
	}
}
