package ledger

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"slices"
	"strings"

	"pds2/internal/crypto"
	"pds2/internal/identity"
	"pds2/internal/telemetry"
)

// The state commitment (DESIGN "State commitment"). Every live record
// is one leaf:
//
//	'B' || address || u64 balance           per non-zero balance
//	'N' || address || u64 nonce             per non-zero nonce
//	'S' || address || u64 len(key) || key || value   per storage key
//
// The part before the value is the record key. A record lives in the
// bucket named by the leading stateBucketBits bits of SHA-256(record
// key); a bucket's digest is the Merkle root (crypto.MerkleRootOfLeaves)
// of its records in record-key byte order; the state root is the root
// of a complete binary tree over the bucket digests in which a node
// with two zero children is itself ZeroDigest, so the empty state
// commits to ZeroDigest.
//
// Writes only append the record key to a dirty list; Root replays the
// list — enter each key into its bucket, rehash the touched buckets
// (dropping members no longer live) and their ancestor paths — so a
// block costs O(touched · bucket size +
// touched · log buckets) and a genesis or snapshot restore is the same
// code with everything dirty.

const (
	stateBucketBits = 12
	stateBuckets    = 1 << stateBucketBits
)

// stateNodePrefix domain-separates the fixed tree over the buckets from
// the Merkle trees inside them (leaf 0x00, node 0x01).
var stateNodePrefix = []byte{0x02}

var (
	mRootSeconds = telemetry.H("ledger.state.root_seconds", telemetry.TimeBuckets)
	// mRootDirty counts record writes folded in by one Root call (a key
	// written twice between roots counts twice).
	mRootDirty = telemetry.H("ledger.state.root_dirty_records", telemetry.CountBuckets)
)

// recKind is a record's type and the tag byte that leads its encoding.
type recKind byte

const (
	recBalance recKind = 'B'
	recNonce   recKind = 'N'
	recStorage recKind = 'S'
)

// recKey identifies one record of the world state.
type recKey struct {
	kind recKind
	addr identity.Address
	key  string // storage key; empty for balances and nonces
}

// appendTo appends the record key's encoding to b.
func (k recKey) appendTo(b []byte) []byte {
	b = append(b, byte(k.kind))
	b = append(b, k.addr[:]...)
	if k.kind == recStorage {
		b = binary.BigEndian.AppendUint64(b, uint64(len(k.key)))
		b = append(b, k.key...)
	}
	return b
}

// compare orders record keys as bytes.Compare orders their encodings.
func (k recKey) compare(o recKey) int {
	if c := cmp.Compare(k.kind, o.kind); c != 0 {
		return c
	}
	if c := bytes.Compare(k.addr[:], o.addr[:]); c != 0 {
		return c
	}
	if c := cmp.Compare(len(k.key), len(o.key)); c != 0 {
		return c
	}
	return strings.Compare(k.key, o.key)
}

// commitment is the cached part of a State's root. It is guarded by
// State.mu like the maps it commits to.
type commitment struct {
	// dirty lists every record written since the last Root, in write
	// order, duplicates included; Root releases it.
	dirty []recKey
	// buckets holds each bucket's live record keys in compare order, and
	// nodes the tree over them in heap layout: nodes[1] is the root,
	// nodes[i]'s children are nodes[2i] and nodes[2i+1], and bucket b's
	// digest is nodes[stateBuckets+b]. Both are nil until the first
	// record is committed.
	buckets [][]recKey
	nodes   []crypto.Digest
}

// appendRecord appends the leaf encoding of record k to b and reports
// whether k is live.
func (s *State) appendRecord(b []byte, k recKey) ([]byte, bool) {
	b = k.appendTo(b)
	if k.kind == recStorage {
		v, ok := s.storage[k.addr][k.key]
		return append(b, v...), ok
	}
	v, ok := s.u64s(k.kind)[k.addr]
	return binary.BigEndian.AppendUint64(b, v), ok
}

// Root returns the state commitment defined at the top of this file. It
// is stored in every block header, so any two replicas can cheaply
// compare their states. Root folds the writes since the previous call
// into the cached tree; with none pending it returns the cached digest.
func (s *State) Root() crypto.Digest {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer mRootSeconds.Time().Stop()
	mRootDirty.Observe(float64(len(s.dirty)))
	if len(s.dirty) > 0 {
		s.flush()
	}
	if s.nodes == nil {
		return crypto.ZeroDigest
	}
	return s.nodes[1]
}

// flush folds the dirty list into buckets and nodes and releases it.
func (s *State) flush() {
	if s.nodes == nil {
		s.buckets = make([][]recKey, stateBuckets)
		s.nodes = make([]crypto.Digest, 2*stateBuckets)
	}
	// Enter every dirty key into its bucket; whether it is still live is
	// settled below, where the bucket's values are looked up anyway.
	touched := make([]bool, 2*stateBuckets)
	var buf []byte
	for _, k := range s.dirty {
		buf = k.appendTo(buf[:0])
		h := sha256.Sum256(buf)
		b := int(binary.BigEndian.Uint16(h[:])) >> (16 - stateBucketBits)
		if i, found := slices.BinarySearchFunc(s.buckets[b], k, recKey.compare); !found {
			s.buckets[b] = slices.Insert(s.buckets[b], i, k)
		}
		touched[stateBuckets+b] = true
	}
	s.dirty = nil

	// Rehash bottom-up: children sit at higher indices than parents, so
	// one descending pass sees every touched node after its children.
	var level []crypto.Digest
	for i := 2*stateBuckets - 1; i >= 1; i-- {
		if !touched[i] {
			continue
		}
		touched[i/2] = true
		if i < stateBuckets {
			if l, r := s.nodes[2*i], s.nodes[2*i+1]; l.IsZero() && r.IsZero() {
				s.nodes[i] = crypto.ZeroDigest
			} else {
				s.nodes[i] = crypto.HashConcat(stateNodePrefix, l[:], r[:])
			}
			continue
		}
		// A bucket: drop the members that are no longer live, hash the rest.
		bucket := s.buckets[i-stateBuckets]
		members := bucket[:0]
		level = level[:0]
		for _, k := range bucket {
			rec, live := s.appendRecord(buf[:0], k)
			if buf = rec; live {
				members = append(members, k)
				level = append(level, crypto.MerkleLeaf(rec))
			}
		}
		clear(bucket[len(members):]) // release the dropped keys' strings
		s.buckets[i-stateBuckets] = members
		s.nodes[i] = crypto.MerkleRootOfLeaves(level)
	}
}
