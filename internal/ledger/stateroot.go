package ledger

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"runtime"
	"slices"
	"strings"
	"sync"

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
// list. Each bucket keeps the interior levels of its Merkle tree, so a
// record whose value changed costs its own leaf, its sibling's and one
// node per level above them; only a bucket that gained or lost a member
// is rebuilt from its records. Then the touched buckets' ancestor paths
// are rehashed. A block costs O(touched · log bucket size + touched · log
// buckets), and a genesis or snapshot restore is the same code with
// everything dirty, spread over every core.

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
	if c := compareAddr(k.addr, o.addr); c != 0 {
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
	// buckets holds each bucket's members and cached tree, and nodes the
	// tree over the buckets in heap layout: nodes[1] is the root,
	// nodes[i]'s children are nodes[2i] and nodes[2i+1], and bucket b's
	// digest is nodes[stateBuckets+b]. Both are nil until the first
	// record is committed.
	buckets []bucket
	nodes   []crypto.Digest
}

// bucket is one bucket's live record keys in compare order and the
// interior levels of the Merkle tree over their records, concatenated
// bottom-up: the ⌈n/2⌉ nodes above the n leaves first, the root last.
// Leaf digests are not kept (they are one hash away from the maps), so a
// bucket of one record has no levels and its leaf is its digest.
type bucket struct {
	keys   []recKey
	levels []crypto.Digest
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

// leafOf returns the leaf digest of the live record k.
func (s *State) leafOf(sc *flushScratch, k recKey) crypto.Digest {
	sc.buf, _ = s.appendRecord(sc.buf[:0], k)
	return crypto.MerkleLeaf(sc.buf)
}

// flushFanOutMin is the dirty-list length from which flush spreads its
// work over every core. Genesis, snapshot restore and reopen reach it; a
// block does not (a full 1,500-transfer block dirties ≈ 4.5k records).
const flushFanOutMin = 4 * stateBuckets

// flush folds the dirty list into buckets and nodes and releases it.
func (s *State) flush() {
	workers := 1
	if len(s.dirty) >= flushFanOutMin {
		workers = runtime.GOMAXPROCS(0)
	}
	s.flushWith(workers)
}

// flushWith is flush over the given number of workers. The two passes
// that cost O(records) — hashing each dirty key to its bucket, then
// sorting and folding in each touched bucket — split into contiguous
// ranges, one per worker, each with its own scratch; one worker runs the
// same loop inline. The tree above the buckets is one serial pass.
func (s *State) flushWith(workers int) {
	if s.nodes == nil {
		s.buckets = make([]bucket, stateBuckets)
		s.nodes = make([]crypto.Digest, 2*stateBuckets)
	}
	dirty := s.dirty
	s.dirty = nil
	scratch := make([]flushScratch, workers)

	// Group the dirty keys by bucket with a counting sort into one
	// exact-size slice: pending[start[b]:start[b+1]] is bucket b's share.
	of := make([]uint16, len(dirty))
	fanOut(scratch, len(dirty), func(lo, hi int, sc *flushScratch) {
		for i := lo; i < hi; i++ {
			sc.buf = dirty[i].appendTo(sc.buf[:0])
			h := sha256.Sum256(sc.buf)
			of[i] = binary.BigEndian.Uint16(h[:]) >> (16 - stateBucketBits)
		}
	})
	var start [stateBuckets + 1]int32
	for _, b := range of {
		start[b]++
	}
	for b := 1; b <= stateBuckets; b++ {
		start[b] += start[b-1] // for now the end of bucket b's share
	}
	pending := make([]recKey, len(dirty))
	for i := len(dirty) - 1; i >= 0; i-- {
		start[of[i]]--
		pending[start[of[i]]] = dirty[i]
	}

	fanOut(scratch, stateBuckets, func(lo, hi int, sc *flushScratch) {
		for b := lo; b < hi; b++ {
			if pend := pending[start[b]:start[b+1]]; len(pend) > 0 {
				slices.SortFunc(pend, recKey.compare)
				digest := &s.nodes[stateBuckets+b]
				*digest = s.flushBucket(&s.buckets[b], slices.Compact(pend), *digest, sc)
			}
		}
	})
	// Rehash the tree above the buckets bottom-up: children sit at higher
	// indices than parents, so one descending pass sees every touched
	// node after its children.
	touched := make([]bool, stateBuckets)
	for b := range stateBuckets {
		if start[b] < start[b+1] {
			touched[(stateBuckets+b)/2] = true
		}
	}
	for i := stateBuckets - 1; i >= 1; i-- {
		if !touched[i] {
			continue
		}
		touched[i/2] = true
		if l, r := s.nodes[2*i], s.nodes[2*i+1]; l.IsZero() && r.IsZero() {
			s.nodes[i] = crypto.ZeroDigest
		} else {
			s.nodes[i] = crypto.HashConcat(stateNodePrefix, l[:], r[:])
		}
	}
}

// fanOut splits [0, n) into one contiguous range per scratch and runs fn
// on each range with that scratch, on goroutines of their own unless
// there is only one.
func fanOut(scratch []flushScratch, n int, fn func(lo, hi int, sc *flushScratch)) {
	if len(scratch) == 1 {
		fn(0, n, &scratch[0])
		return
	}
	var wg sync.WaitGroup
	for w := range scratch {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(w*n/len(scratch), (w+1)*n/len(scratch), &scratch[w])
		}()
	}
	wg.Wait()
}

// flushScratch is the memory one flush worker reuses across its keys
// and buckets.
type flushScratch struct {
	buf    []byte
	writes []pendingWrite
	leaves []crypto.Digest
}

// pendingWrite is what one dirty key turned out to be once looked up.
type pendingWrite struct {
	at    int           // position in the bucket's keys, or where it would be inserted
	found bool          // the bucket holds the key
	live  bool          // the maps hold the record
	leaf  crypto.Digest // its leaf digest, when live
}

// flushBucket folds the writes to pend — the bucket's dirty keys, sorted
// and distinct — into bk, whose digest is root, and returns the new
// digest. Writes that only change values rehash their paths through the
// cached levels; a key that enters or leaves the bucket has it rebuilt.
func (s *State) flushBucket(bk *bucket, pend []recKey, root crypto.Digest, sc *flushScratch) crypto.Digest {
	sc.writes = sc.writes[:0]
	size, rebuild := len(bk.keys), false
	for _, k := range pend {
		var w pendingWrite
		w.at, w.found = slices.BinarySearchFunc(bk.keys, k, recKey.compare)
		if sc.buf, w.live = s.appendRecord(sc.buf[:0], k); w.live {
			w.leaf = crypto.MerkleLeaf(sc.buf)
		}
		if w.live != w.found {
			rebuild = true
			if w.live {
				size++
			} else {
				size--
			}
		}
		sc.writes = append(sc.writes, w)
	}
	if !rebuild {
		for _, w := range sc.writes {
			if w.live {
				root = s.rehashPath(bk, w.at, w.leaf, sc)
			}
		}
		return root
	}

	// Membership changed: one merge of the old keys with the pending ones
	// into exact-size slices. Members that were not written are live, and
	// their leaves are recomputed from the maps.
	if size == 0 {
		*bk = bucket{}
		return crypto.ZeroDigest
	}
	keys, leaves := make([]recKey, 0, size), sc.leaves[:0]
	next := 0 // first old key not yet merged
	keep := func(upTo int) {
		for ; next < upTo; next++ {
			keys, leaves = append(keys, bk.keys[next]), append(leaves, s.leafOf(sc, bk.keys[next]))
		}
	}
	for j, w := range sc.writes {
		keep(w.at)
		if w.found {
			next++ // replaced just below, or dropped
		}
		if w.live {
			keys, leaves = append(keys, pend[j]), append(leaves, w.leaf)
		}
	}
	keep(len(bk.keys))
	sc.leaves = leaves
	bk.keys, bk.levels = keys, merkleLevels(leaves)
	if len(bk.levels) == 0 {
		return leaves[0]
	}
	return bk.levels[len(bk.levels)-1]
}

// merkleLevels returns the interior levels above the given leaf level in
// bucket.levels layout: none for fewer than two leaves.
func merkleLevels(leaves []crypto.Digest) []crypto.Digest {
	size := 0
	for n := len(leaves); n > 1; size += n {
		n = (n + 1) / 2
	}
	levels := make([]crypto.Digest, 0, size)
	for level := leaves; len(level) > 1; {
		at := len(levels)
		levels = crypto.AppendMerkleLevel(levels, level)
		level = levels[at:]
	}
	return levels
}

// rehashPath installs leaf as the digest of bk's i-th record and
// recomputes the nodes above it, reading each sibling from the cached
// level (the leaf's sibling from the maps), and returns the bucket digest.
func (s *State) rehashPath(bk *bucket, i int, cur crypto.Digest, sc *flushScratch) crypto.Digest {
	var level []crypto.Digest // the cached level cur sits in; nil at the leaves
	above := bk.levels
	for n := len(bk.keys); n > 1; {
		if sib := i ^ 1; sib < n { // else an odd node at the end: promoted unchanged
			var d crypto.Digest
			if level == nil {
				d = s.leafOf(sc, bk.keys[sib])
			} else {
				d = level[sib]
			}
			if i < sib {
				cur = crypto.MerkleNode(cur, d)
			} else {
				cur = crypto.MerkleNode(d, cur)
			}
		}
		i, n = i/2, (n+1)/2
		level, above = above[:n], above[n:]
		level[i] = cur
	}
	return cur
}
