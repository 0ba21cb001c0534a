package ledger

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"pds2/internal/identity"
	"pds2/internal/telemetry"
)

// mStateWrites counts journaled primitive mutations (balance, nonce and
// storage writes) — the state-pressure signal behind every gas number.
var mStateWrites = telemetry.C("ledger.state.writes_total")

// State is the replicated world state of the governance ledger: native
// token balances, account nonces and per-contract key/value storage.
// The maps hold live records only — a zero balance or nonce and an
// empty storage value are absent keys — so map sizes are record counts.
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
// Root is on the writer's side of that contract: it flushes pending
// writes into the cached commitment (stateroot.go) under the write
// lock, so only whoever serializes chain mutation may call it.
type State struct {
	mu       sync.RWMutex
	balances map[identity.Address]uint64
	nonces   map[identity.Address]uint64
	storage  map[identity.Address]map[string][]byte
	journal  []journalEntry
	commitment
}

// journalEntry is the undo record for one primitive mutation: the
// record written and its previous value (zero or nil when it did not
// exist).
type journalEntry struct {
	recKey
	prevU64  uint64
	prevBlob []byte
}

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
	s.putU64(recBalance, addr, v)
	s.mu.Unlock()
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
// transaction flow only ever bumps it.
func (s *State) SetNonce(addr identity.Address, v uint64) {
	s.mu.Lock()
	s.putU64(recNonce, addr, v)
	s.mu.Unlock()
}

// BumpNonce increments addr's nonce.
func (s *State) BumpNonce(addr identity.Address) {
	s.mu.Lock()
	s.putU64(recNonce, addr, s.nonces[addr]+1)
	s.mu.Unlock()
}

// u64s returns the map holding records of the given kind.
func (s *State) u64s(kind recKind) map[identity.Address]uint64 {
	if kind == recBalance {
		return s.balances
	}
	return s.nonces
}

// putU64 journals and applies one balance or nonce write and marks the
// record dirty. The caller holds s.mu.
func (s *State) putU64(kind recKind, addr identity.Address, v uint64) {
	m, k := s.u64s(kind), recKey{kind: kind, addr: addr}
	s.journal = append(s.journal, journalEntry{recKey: k, prevU64: m[addr]})
	setU64(m, addr, v)
	s.dirty = append(s.dirty, k)
	mStateWrites.Inc()
}

// setU64 stores v under addr; zero is the absent key.
func setU64(m map[identity.Address]uint64, addr identity.Address, v uint64) {
	if v == 0 {
		delete(m, addr)
	} else {
		m[addr] = v
	}
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
	k := recKey{kind: recStorage, addr: contract, key: key}
	s.journal = append(s.journal, journalEntry{recKey: k, prevBlob: s.storage[contract][key]})
	if len(value) != 0 {
		value = append([]byte(nil), value...)
	}
	s.setStorage(contract, key, value)
	s.dirty = append(s.dirty, k)
	s.mu.Unlock()
	mStateWrites.Inc()
}

// load writes a genesis allocation or a snapshot's records into an empty
// state without the undo journal: both loaders commit at once, so an
// undo record per account would only hold memory, and Commit keeps the
// journal's backing array for the life of the state. The maps and the
// dirty list are sized for the records up front.
func (s *State) load(balances, nonces map[identity.Address]uint64, storage map[identity.Address]map[string][]byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	records := len(balances) + len(nonces)
	for _, slot := range storage {
		records += len(slot)
	}
	s.balances = make(map[identity.Address]uint64, len(balances))
	s.nonces = make(map[identity.Address]uint64, len(nonces))
	s.storage = make(map[identity.Address]map[string][]byte, len(storage))
	s.dirty = make([]recKey, 0, records)
	for kind, m := range map[recKind]map[identity.Address]uint64{recBalance: balances, recNonce: nonces} {
		for a, v := range m {
			setU64(s.u64s(kind), a, v)
			s.dirty = append(s.dirty, recKey{kind: kind, addr: a})
		}
	}
	for a, slot := range storage {
		for k, v := range slot {
			s.setStorage(a, k, bytes.Clone(v))
			s.dirty = append(s.dirty, recKey{kind: recStorage, addr: a, key: k})
		}
	}
}

// setStorage installs value (which the state then owns) under
// (contract, key); empty is the absent key, and a contract's last key
// takes its slot map with it.
func (s *State) setStorage(contract identity.Address, key string, value []byte) {
	slot := s.storage[contract]
	if len(value) == 0 {
		delete(slot, key)
		if len(slot) == 0 {
			delete(s.storage, contract)
		}
		return
	}
	if slot == nil {
		slot = make(map[string][]byte)
		s.storage[contract] = slot
	}
	slot[key] = value
}

// StorageKeys returns the sorted keys under a contract's storage with the
// given prefix. Only read paths call it; no contract enumerates storage.
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
	addrs := make([]identity.Address, 0, len(s.balances))
	for a := range s.balances {
		addrs = append(addrs, a)
	}
	for a := range s.nonces {
		if _, funded := s.balances[a]; !funded {
			addrs = append(addrs, a)
		}
	}
	s.mu.RUnlock()
	sortAddresses(addrs)
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
// Each restored record is marked dirty again: a Root taken inside the
// reverted span has already folded the undone value into the commitment.
func (s *State) RevertTo(snap int) {
	if snap < 0 || snap > len(s.journal) {
		panic(fmt.Sprintf("ledger: invalid snapshot %d (journal %d)", snap, len(s.journal)))
	}
	s.mu.Lock()
	for i := len(s.journal) - 1; i >= snap; i-- {
		e := s.journal[i]
		if e.kind == recStorage {
			s.setStorage(e.addr, e.key, e.prevBlob)
		} else {
			setU64(s.u64s(e.kind), e.addr, e.prevU64)
		}
		s.dirty = append(s.dirty, e.recKey)
	}
	s.mu.Unlock()
	s.journal = s.journal[:snap]
}

// Commit discards undo information, making all mutations permanent.
func (s *State) Commit() { s.journal = s.journal[:0] }

func sortAddresses(addrs []identity.Address) { slices.SortFunc(addrs, compareAddr) }

// compareAddr orders addresses as bytes.Compare orders their bytes, as
// two big-endian 64-bit words and one 32-bit word.
func compareAddr(a, b identity.Address) int {
	if c := cmp.Compare(binary.BigEndian.Uint64(a[:8]), binary.BigEndian.Uint64(b[:8])); c != 0 {
		return c
	}
	if c := cmp.Compare(binary.BigEndian.Uint64(a[8:16]), binary.BigEndian.Uint64(b[8:16])); c != 0 {
		return c
	}
	return cmp.Compare(binary.BigEndian.Uint32(a[16:]), binary.BigEndian.Uint32(b[16:]))
}
