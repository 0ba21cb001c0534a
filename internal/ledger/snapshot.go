package ledger

import (
	"bufio"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"slices"
	"strconv"
	"strings"

	"pds2/internal/crypto"
	"pds2/internal/identity"
)

// State snapshots: the chain export of export.go replays every block
// from genesis, which is the right trust model for a third-party audit
// but the wrong startup cost for a node restarting mid-run or a replica
// fast-syncing at height one million. A StateSnapshot captures the full
// world state at a block boundary, checksummed by the head block's
// sealed StateRoot, so a chain can resume from "snapshot + tail-of-log"
// (internal/chainstore) instead of re-executing history.

// StateSnapshot is the portable point-in-time form of a chain at a
// block boundary. It reuses the ledger export encoding for the chain
// configuration (authorities, gas limit, genesis allocations) and adds
// the head block plus the three world-state maps. The head block's
// sealed StateRoot is the snapshot's integrity checksum:
// NewChainFromSnapshot recomputes the root of the restored state and
// rejects the snapshot on any mismatch, so a flipped balance bit or a
// truncated storage value cannot produce a silently divergent replica.
type StateSnapshot struct {
	Authorities   []identity.Address                     `json:"authorities"`
	BlockGasLimit uint64                                 `json:"block_gas_limit"`
	GenesisAlloc  map[identity.Address]uint64            `json:"genesis_alloc,omitempty"`
	Head          *Block                                 `json:"head"`
	Balances      map[identity.Address]uint64            `json:"balances,omitempty"`
	Nonces        map[identity.Address]uint64            `json:"nonces,omitempty"`
	Storage       map[identity.Address]map[string][]byte `json:"storage,omitempty"`
}

// Height returns the block height the snapshot was taken at.
func (s *StateSnapshot) Height() uint64 {
	if s.Head == nil {
		return 0
	}
	return s.Head.Header.Height
}

// ErrSnapshotChecksum reports a snapshot whose restored state does not
// reproduce the head block's sealed state root — corruption, tampering,
// or a snapshot produced by incompatible state semantics.
var ErrSnapshotChecksum = errors.New("ledger: snapshot state does not match head state root")

// ExportSnapshot captures the chain's current state as a snapshot
// anchored at the head block. The maps are deep copies: callers may
// serialize the snapshot while the chain keeps sealing.
func (c *Chain) ExportSnapshot() *StateSnapshot {
	st := c.state
	snap := &StateSnapshot{
		Authorities:   append([]identity.Address(nil), c.cfg.Authorities...),
		BlockGasLimit: c.cfg.BlockGasLimit,
		Head:          c.Head(),
		Balances:      make(map[identity.Address]uint64),
		Nonces:        make(map[identity.Address]uint64),
		Storage:       make(map[identity.Address]map[string][]byte),
	}
	if len(c.cfg.GenesisAlloc) > 0 {
		snap.GenesisAlloc = make(map[identity.Address]uint64, len(c.cfg.GenesisAlloc))
		for a, v := range c.cfg.GenesisAlloc {
			snap.GenesisAlloc[a] = v
		}
	}
	st.mu.RLock()
	defer st.mu.RUnlock()
	for a, v := range st.balances {
		snap.Balances[a] = v
	}
	for a, v := range st.nonces {
		snap.Nonces[a] = v
	}
	for a, slot := range st.storage {
		cp := make(map[string][]byte, len(slot))
		for k, v := range slot {
			cp[k] = append([]byte(nil), v...)
		}
		snap.Storage[a] = cp
	}
	return snap
}

// The genesis record and a snapshot are the two documents whose size is
// O(accounts). encoding/json builds a whole document in a buffer it then
// keeps in a pool (and MarshalIndent copies it twice more), so
// WriteSnapshot and WriteConfig write them one map entry at a time
// instead, byte for byte as encoding/json would, which the tests check
// against it: fields in struct order, map keys in its order (an address
// as its hex text, which sorts as its bytes do; a string by
// strings.Compare), and json.Marshal only for the small pieces.

// WriteSnapshot serializes a snapshot as JSON, byte-identical to
// json.NewEncoder(w).Encode(snap).
func WriteSnapshot(w io.Writer, snap *StateSnapshot) error {
	auth, err1 := json.Marshal(snap.Authorities)
	head, err2 := json.Marshal(snap.Head)
	if err := errors.Join(err1, err2); err != nil {
		return fmt.Errorf("ledger: encode snapshot: %w", err)
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, `{"authorities":%s,"block_gas_limit":%d`, auth, snap.BlockGasLimit)
	writeAmounts(bw, `,"genesis_alloc":`, snap.GenesisAlloc, "")
	fmt.Fprintf(bw, `,"head":%s`, head)
	writeAmounts(bw, `,"balances":`, snap.Balances, "")
	writeAmounts(bw, `,"nonces":`, snap.Nonces, "")
	if len(snap.Storage) > 0 {
		bw.WriteString(`,"storage":{`)
		for i, a := range sortedAddrs(snap.Storage) {
			if i > 0 {
				bw.WriteByte(',')
			}
			writeAddr(bw, a)
			bw.WriteByte(':')
			slot := snap.Storage[a]
			if slot == nil {
				bw.WriteString("null")
				continue
			}
			keys := make([]string, 0, len(slot))
			for k := range slot {
				keys = append(keys, k)
			}
			slices.Sort(keys)
			bw.WriteByte('{')
			for j, k := range keys {
				if j > 0 {
					bw.WriteByte(',')
				}
				key, _ := json.Marshal(k) // a string and a []byte always encode
				value, _ := json.Marshal(slot[k])
				fmt.Fprintf(bw, "%s:%s", key, value)
			}
			bw.WriteByte('}')
		}
		bw.WriteByte('}')
	}
	bw.WriteString("}\n")
	return bw.Flush()
}

// WriteConfig serializes a chain export as indented JSON, byte-identical
// to json.MarshalIndent(exp, "", " "): the genesis record a durable
// store keeps.
func WriteConfig(w io.Writer, exp ChainExport) error {
	auth, err1 := json.MarshalIndent(exp.Authorities, " ", " ")
	blocks, err2 := json.MarshalIndent(exp.Blocks, " ", " ")
	if err := errors.Join(err1, err2); err != nil {
		return fmt.Errorf("ledger: encode config: %w", err)
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "{\n \"authorities\": %s,\n \"block_gas_limit\": %d", auth, exp.BlockGasLimit)
	writeAmounts(bw, ",\n \"genesis_alloc\": ", exp.GenesisAlloc, "\n  ")
	fmt.Fprintf(bw, ",\n \"blocks\": %s\n}", blocks)
	return bw.Flush()
}

// writeAmounts writes an address → amount map, an omitempty field, after
// member (its comma, name and colon); indent is "" for the compact
// layout, else the line break and indent that start each entry.
func writeAmounts(w *bufio.Writer, member string, m map[identity.Address]uint64, indent string) {
	if len(m) == 0 {
		return
	}
	colon := ":"
	if indent != "" {
		colon = ": "
	}
	w.WriteString(member + "{")
	for i, e := range sortedAmounts(m) {
		if i > 0 {
			w.WriteByte(',')
		}
		w.WriteString(indent)
		writeAddr(w, e.addr)
		w.WriteString(colon)
		w.Write(strconv.AppendUint(w.AvailableBuffer(), e.v, 10))
	}
	w.WriteString(strings.TrimSuffix(indent, " ") + "}")
}

// amountEntry is one entry of an address → amount map.
type amountEntry struct {
	addr identity.Address
	v    uint64
}

// sortedAmounts returns m's entries in address order. Addresses are
// hashes, so their leading bits spread evenly: a counting pass over the
// top ≈ log₂ len(m) bits (16 at most) places every entry in the run of
// its prefix, and only the entries that share a run are compared.
func sortedAmounts(m map[identity.Address]uint64) []amountEntry {
	shift := 16 - min(bits.Len(uint(len(m))), 16)
	prefix := func(a identity.Address) int { return int(binary.BigEndian.Uint16(a[:]) >> shift) }
	end := make([]int32, 1<<(16-shift)+1)
	for a := range m {
		end[prefix(a)+1]++
	}
	for p := 1; p < len(end); p++ {
		end[p] += end[p-1] // for now the start of run p
	}
	out := make([]amountEntry, len(m))
	for a, v := range m {
		p := prefix(a)
		out[end[p]] = amountEntry{a, v}
		end[p]++
	}
	from := int32(0)
	for _, to := range end[:len(end)-1] {
		if to-from > 1 {
			slices.SortFunc(out[from:to], func(x, y amountEntry) int { return compareAddr(x.addr, y.addr) })
		}
		from = to
	}
	return out
}

// writeAddr writes an address as Address.MarshalText spells it, quoted.
func writeAddr(w *bufio.Writer, a identity.Address) {
	w.Write(append(hex.AppendEncode(append(w.AvailableBuffer(), '"'), a[:]), '"'))
}

func sortedAddrs[V any](m map[identity.Address]V) []identity.Address {
	addrs := make([]identity.Address, 0, len(m))
	for a := range m {
		addrs = append(addrs, a)
	}
	sortAddresses(addrs)
	return addrs
}

// ReadSnapshot parses a serialized snapshot. Integrity is checked by
// NewChainFromSnapshot, not here.
func ReadSnapshot(r io.Reader) (*StateSnapshot, error) {
	var snap StateSnapshot
	if err := json.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("ledger: decode snapshot: %w", err)
	}
	if snap.Head == nil {
		return nil, errors.New("ledger: snapshot has no head block")
	}
	return &snap, nil
}

// NewChainFromSnapshot restores a chain from a snapshot: the world
// state is rebuilt from the snapshot maps, its recomputed root is
// checked against the head block's sealed StateRoot (the checksum), and
// the head block's proposer seal is re-verified against the embedded
// authority set. The returned chain's base is the snapshot height:
// blocks below it are pruned (BlockAt reports them unavailable) but the
// chain imports, seals and verifies new blocks exactly as a
// genesis-grown chain does. applier must provide the same transaction
// semantics the original chain ran; nil selects plain transfers.
func NewChainFromSnapshot(snap *StateSnapshot, applier TxApplier) (*Chain, error) {
	if snap == nil || snap.Head == nil {
		return nil, errors.New("ledger: nil snapshot")
	}
	if len(snap.Authorities) == 0 {
		return nil, errors.New("ledger: snapshot carries no authority set")
	}
	if applier == nil {
		applier = TransferApplier{}
	}
	gasLimit := snap.BlockGasLimit
	if gasLimit == 0 {
		gasLimit = DefaultBlockGasLimit
	}
	head := snap.Head
	if head.Header.Height > 0 {
		// Genesis blocks are unsealed (derived, not proposed); every
		// other head must carry a valid seal by the rotation's proposer.
		if err := head.verifySeal(); err != nil {
			return nil, fmt.Errorf("ledger: snapshot head: %w", err)
		}
		expect := snap.Authorities[(head.Header.Height-1)%uint64(len(snap.Authorities))]
		if head.Header.Proposer != expect {
			return nil, fmt.Errorf("%w: snapshot head sealed by %s, rotation expects %s",
				ErrBadProposer, head.Header.Proposer.Short(), expect.Short())
		}
		if txRoot(head.Txs) != head.Header.TxRoot {
			return nil, fmt.Errorf("ledger: snapshot head: %w", ErrBadTxRoot)
		}
	}
	st := NewState()
	st.load(snap.Balances, snap.Nonces, snap.Storage)
	if root := st.Root(); root != head.Header.StateRoot {
		return nil, fmt.Errorf("%w: restored %s, head claims %s",
			ErrSnapshotChecksum, root.Short(), head.Header.StateRoot.Short())
	}
	return &Chain{
		cfg: ChainConfig{
			Authorities:   append([]identity.Address(nil), snap.Authorities...),
			BlockGasLimit: gasLimit,
			Applier:       applier,
			GenesisAlloc:  snap.GenesisAlloc,
		},
		blocks:   []*Block{head},
		base:     head.Header.Height,
		state:    st,
		receipts: make(map[crypto.Digest]*Receipt),
	}, nil
}
