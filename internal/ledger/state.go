package ledger

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
	"sync"

	"pds2/internal/crypto"
	"pds2/internal/identity"
	"pds2/internal/telemetry"
)

// mStateWrites counts journaled primitive mutations (balance, nonce and
// storage writes) — the state-pressure signal behind every gas number.
var mStateWrites = telemetry.C("ledger.state.writes_total")

// State is the replicated world state of the governance ledger: native
// token balances, account nonces and per-contract key/value storage.
//
// All mutations are journaled, so the contract runtime can take snapshots
// and revert to them — the mechanism behind transactional contract calls
// ("revert semantics"). Commit collapses the journal at the end of every
// successfully applied transaction.
//
// Concurrency contract: exactly one goroutine mutates the state (and
// owns the journal) at a time, but any number of goroutines may call
// the primitive readers (Balance, Nonce, GetStorage, StorageKeys)
// concurrently with that writer — each primitive access takes the lock,
// so a reader outside whatever serializes chain mutation (a status
// probe, an admission nonce lookup) never races block execution.
type State struct {
	mu       sync.RWMutex
	balances map[identity.Address]uint64
	nonces   map[identity.Address]uint64
	storage  map[identity.Address]map[string][]byte
	journal  []journalEntry
}

// journalEntry is the undo record for one primitive mutation.
type journalEntry struct {
	kind     journalKind
	addr     identity.Address
	key      string
	prevU64  uint64
	prevBlob []byte
	existed  bool
}

type journalKind uint8

const (
	jBalance journalKind = iota
	jNonce
	jStorage
)

// NewState returns an empty world state.
func NewState() *State {
	return &State{
		balances: make(map[identity.Address]uint64),
		nonces:   make(map[identity.Address]uint64),
		storage:  make(map[identity.Address]map[string][]byte),
	}
}

// Balance returns the native-token balance of addr.
func (s *State) Balance(addr identity.Address) uint64 {
	s.mu.RLock()
	v := s.balances[addr]
	s.mu.RUnlock()
	return v
}

// SetBalance sets the balance of addr, journaling the previous value.
func (s *State) SetBalance(addr identity.Address, v uint64) {
	s.mu.Lock()
	s.journal = append(s.journal, journalEntry{kind: jBalance, addr: addr, prevU64: s.balances[addr]})
	s.balances[addr] = v
	s.mu.Unlock()
	mStateWrites.Inc()
}

// AddBalance credits addr. It returns an error on overflow.
func (s *State) AddBalance(addr identity.Address, v uint64) error {
	cur := s.Balance(addr)
	if cur+v < cur {
		return fmt.Errorf("ledger: balance overflow for %s", addr.Short())
	}
	s.SetBalance(addr, cur+v)
	return nil
}

// SubBalance debits addr. It returns an error on insufficient funds.
func (s *State) SubBalance(addr identity.Address, v uint64) error {
	cur := s.Balance(addr)
	if cur < v {
		return fmt.Errorf("ledger: insufficient balance for %s: have %d, need %d", addr.Short(), cur, v)
	}
	s.SetBalance(addr, cur-v)
	return nil
}

// Nonce returns the next expected transaction nonce for addr.
func (s *State) Nonce(addr identity.Address) uint64 {
	s.mu.RLock()
	v := s.nonces[addr]
	s.mu.RUnlock()
	return v
}

// SetNonce sets addr's nonce, journaling the previous value. Normal
// transaction flow only ever bumps; this exists for snapshot restore.
func (s *State) SetNonce(addr identity.Address, v uint64) {
	s.mu.Lock()
	s.journal = append(s.journal, journalEntry{kind: jNonce, addr: addr, prevU64: s.nonces[addr]})
	s.nonces[addr] = v
	s.mu.Unlock()
	mStateWrites.Inc()
}

// BumpNonce increments addr's nonce.
func (s *State) BumpNonce(addr identity.Address) {
	s.mu.Lock()
	s.journal = append(s.journal, journalEntry{kind: jNonce, addr: addr, prevU64: s.nonces[addr]})
	s.nonces[addr]++
	s.mu.Unlock()
	mStateWrites.Inc()
}

// GetStorage returns a copy of the stored value for (contract, key), or
// nil.
func (s *State) GetStorage(contract identity.Address, key string) []byte {
	s.mu.RLock()
	v := s.storage[contract][key]
	s.mu.RUnlock()
	if v == nil {
		return nil
	}
	// Stored values are immutable — every write installs a fresh copy —
	// so copying after the unlock is safe.
	return append([]byte(nil), v...)
}

// SetStorage writes a value to (contract, key). A nil or empty value
// deletes the key.
func (s *State) SetStorage(contract identity.Address, key string, value []byte) {
	s.mu.Lock()
	slot := s.storage[contract]
	prev, existed := slot[key]
	s.journal = append(s.journal, journalEntry{
		kind: jStorage, addr: contract, key: key,
		prevBlob: append([]byte(nil), prev...), existed: existed,
	})
	if len(value) == 0 {
		delete(slot, key)
	} else {
		if slot == nil {
			slot = make(map[string][]byte)
			s.storage[contract] = slot
		}
		slot[key] = append([]byte(nil), value...)
	}
	s.mu.Unlock()
	mStateWrites.Inc()
}

// StorageKeys returns the sorted keys under a contract's storage with the
// given prefix. Sorted iteration keeps contract logic deterministic.
func (s *State) StorageKeys(contract identity.Address, prefix string) []string {
	s.mu.RLock()
	var keys []string
	for k := range s.storage[contract] {
		if strings.HasPrefix(k, prefix) {
			keys = append(keys, k)
		}
	}
	s.mu.RUnlock()
	sort.Strings(keys)
	return keys
}

// TotalBalance returns the sum of every native-token balance. Nothing in
// the transaction semantics mints or burns native tokens after genesis,
// so this quantity is conserved across every block — the supply
// invariant the property-testing harness (internal/proptest) audits
// after each seal.
func (s *State) TotalBalance() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var total uint64
	for _, v := range s.balances {
		total += v
	}
	return total
}

// Accounts returns every address carrying a non-zero balance or nonce,
// in deterministic (address) order — the enumeration surface invariant
// auditors walk to compare replicas account by account.
func (s *State) Accounts() []identity.Address {
	s.mu.RLock()
	addrs := nonZeroAddrs(s.balances)
	for a, v := range s.nonces {
		if v != 0 && s.balances[a] == 0 {
			addrs = append(addrs, a)
		}
	}
	s.mu.RUnlock()
	sortAddresses(addrs)
	return addrs
}

// nonZeroAddrs returns the keys of m that map to a non-zero value, in
// map order.
func nonZeroAddrs(m map[identity.Address]uint64) []identity.Address {
	addrs := make([]identity.Address, 0, len(m))
	for a, v := range m {
		if v != 0 {
			addrs = append(addrs, a)
		}
	}
	return addrs
}

// JournalLen returns the number of uncommitted journal entries. A chain
// that just sealed a block must report zero — Commit collapses the
// journal — which the invariant harness checks to pin that no partial
// transaction effects leak across block boundaries.
func (s *State) JournalLen() int { return len(s.journal) }

// Snapshot returns a marker for the current journal position.
func (s *State) Snapshot() int { return len(s.journal) }

// RevertTo undoes every mutation recorded after the snapshot marker.
func (s *State) RevertTo(snap int) {
	if snap < 0 || snap > len(s.journal) {
		panic(fmt.Sprintf("ledger: invalid snapshot %d (journal %d)", snap, len(s.journal)))
	}
	s.mu.Lock()
	for i := len(s.journal) - 1; i >= snap; i-- {
		e := s.journal[i]
		switch e.kind {
		case jBalance:
			s.balances[e.addr] = e.prevU64
		case jNonce:
			s.nonces[e.addr] = e.prevU64
		case jStorage:
			slot := s.storage[e.addr]
			if e.existed {
				if slot == nil {
					slot = make(map[string][]byte)
					s.storage[e.addr] = slot
				}
				slot[e.key] = e.prevBlob
			} else if slot != nil {
				delete(slot, e.key)
			}
		}
	}
	s.mu.Unlock()
	s.journal = s.journal[:snap]
}

// Commit discards undo information, making all mutations permanent.
func (s *State) Commit() { s.journal = s.journal[:0] }

// Root computes a deterministic digest of the entire world state. It is
// recomputed per block and stored in the header, so any two replicas can
// cheaply compare their states. The leaves are, in order: one 'B' record
// per non-zero balance and one 'N' record per non-zero nonce, each by
// ascending address, then one 'S' record per storage key, by ascending
// contract address and key.
func (s *State) Root() crypto.Digest {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var h [][]byte

	u64Records := func(tag byte, m map[identity.Address]uint64) {
		addrs := nonZeroAddrs(m)
		sortAddresses(addrs)
		for _, a := range addrs {
			rec := make([]byte, 0, identity.AddressSize+9)
			rec = append(rec, tag)
			rec = append(rec, a[:]...)
			rec = binary.BigEndian.AppendUint64(rec, m[a])
			h = append(h, rec)
		}
	}
	u64Records('B', s.balances)
	u64Records('N', s.nonces)

	addrs := make([]identity.Address, 0, len(s.storage))
	for a := range s.storage {
		addrs = append(addrs, a)
	}
	sortAddresses(addrs)
	for _, a := range addrs {
		slot := s.storage[a]
		keys := make([]string, 0, len(slot))
		for k := range slot {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			rec := make([]byte, 0, identity.AddressSize+len(k)+len(slot[k])+10)
			rec = append(rec, 'S')
			rec = append(rec, a[:]...)
			rec = binary.BigEndian.AppendUint64(rec, uint64(len(k)))
			rec = append(rec, k...)
			rec = append(rec, slot[k]...)
			h = append(h, rec)
		}
	}
	return crypto.MerkleRootOf(h)
}

func sortAddresses(addrs []identity.Address) {
	sort.Slice(addrs, func(i, j int) bool {
		for k := 0; k < identity.AddressSize; k++ {
			if addrs[i][k] != addrs[j][k] {
				return addrs[i][k] < addrs[j][k]
			}
		}
		return false
	})
}
