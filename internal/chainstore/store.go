// Package chainstore persists a ledger chain to disk so a node can
// restart mid-run and resume from "snapshot + tail-of-log" instead of
// replaying from genesis, and a replica can fast-sync from a snapshot.
//
// Layout of a store directory:
//
//	genesis.json       block-less ledger.ChainExport (chain config)
//	meta.json          opaque runtime metadata (owner-defined JSON)
//	segments/
//	  seg-00000001.log append-only framed block log
//	  seg-00000002.log ...
//	snapshots/
//	  snap-000000000040.json  ledger.StateSnapshot at height 40
//
// Each segment frame is [u32 length][u32 crc32(payload)][payload],
// big-endian, payload = one JSON-encoded block. Appends fsync before
// returning (a sealed block is durable or the seal fails), and Open
// recovers from a crash mid-append by truncating the final segment at
// the first incomplete or checksum-failing frame.
package chainstore

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"pds2/internal/ledger"
	"pds2/internal/telemetry"
)

// Store telemetry: append volume, fsync latency (the health signal),
// and how often crash recovery actually had to truncate.
var (
	mAppends     = telemetry.C("chainstore.appends_total")
	mAppendBytes = telemetry.C("chainstore.append_bytes_total")
	mFsync       = telemetry.H("chainstore.fsync_seconds", telemetry.TimeBuckets)
	mTruncations = telemetry.C("chainstore.recovered_truncations_total")
	mSnapshots   = telemetry.C("chainstore.snapshots_total")
	mSegments    = telemetry.G("chainstore.segments")
)

// Frame layout constants.
const (
	frameHeaderSize = 8 // u32 length + u32 crc32
	// maxFrameSize bounds a single frame so a corrupted length field
	// cannot drive a multi-gigabyte allocation during recovery.
	maxFrameSize = 64 << 20
)

// Store errors.
var (
	// ErrCorruptSegment reports a bad frame in a non-final segment —
	// real corruption, not a crash tail, so Open refuses the store.
	ErrCorruptSegment = errors.New("chainstore: corrupt frame in sealed segment")
	// ErrNotContiguous reports an append whose height does not extend
	// the log by exactly one.
	ErrNotContiguous = errors.New("chainstore: append not contiguous with log")
	// ErrClosed reports use after Close.
	ErrClosed = errors.New("chainstore: store closed")
)

// Options tune a store. The zero value selects the defaults.
type Options struct {
	// SegmentBytes rolls to a new segment file once the active one
	// exceeds this size (default 8 MiB).
	SegmentBytes int64
	// SlowFsyncThreshold degrades the store's health check when the
	// most recent fsync took longer (default 500ms).
	SlowFsyncThreshold time.Duration
	// NoFsync skips fsync on append — only for tests and load rigs
	// that measure everything except the disk.
	NoFsync bool
}

func (o *Options) withDefaults() Options {
	out := Options{}
	if o != nil {
		out = *o
	}
	if out.SegmentBytes <= 0 {
		out.SegmentBytes = 8 << 20
	}
	if out.SlowFsyncThreshold <= 0 {
		out.SlowFsyncThreshold = 500 * time.Millisecond
	}
	return out
}

// segmentInfo tracks one on-disk segment file.
type segmentInfo struct {
	path   string
	index  uint64 // 1-based sequence number from the file name
	first  uint64 // height of the first block (0 = empty segment)
	last   uint64 // height of the last block
	frames int
	size   int64
}

// Store is a durable append-only block log plus periodic state
// snapshots. All methods are safe for concurrent use.
type Store struct {
	dir  string
	opts Options

	mu        sync.Mutex
	closed    bool
	active    *os.File // current segment, opened for append
	segments  []segmentInfo
	last      uint64 // height of the last appended block (0 = empty log)
	haveAny   bool   // distinguishes "empty log" from "log ending at height 0"
	truncated int    // bytes dropped by crash recovery on Open

	lastFsync   time.Duration
	lastErr     error // sticky write error → unhealthy
	lastErrTime time.Time
}

// Open opens (or initialises) a store directory, recovering from a
// crash mid-append by truncating the final segment at the first bad
// frame. opts may be nil.
func Open(dir string, opts *Options) (*Store, error) {
	s := &Store{dir: dir, opts: opts.withDefaults()}
	for _, sub := range []string{dir, s.segmentDir(), s.snapshotDir()} {
		if err := os.MkdirAll(sub, 0o755); err != nil {
			return nil, fmt.Errorf("chainstore: %w", err)
		}
	}
	if err := s.scanSegments(); err != nil {
		return nil, err
	}
	if err := s.openActive(); err != nil {
		return nil, err
	}
	mSegments.Set(float64(len(s.segments)))
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

func (s *Store) segmentDir() string  { return filepath.Join(s.dir, "segments") }
func (s *Store) snapshotDir() string { return filepath.Join(s.dir, "snapshots") }

func segmentName(index uint64) string { return fmt.Sprintf("seg-%08d.log", index) }

// scanSegments reads every segment in order, validating frames. A bad
// frame in the final segment is a crash tail: the file is truncated at
// the last good frame. A bad frame anywhere else is corruption.
func (s *Store) scanSegments() error {
	entries, err := os.ReadDir(s.segmentDir())
	if err != nil {
		return fmt.Errorf("chainstore: %w", err)
	}
	var infos []segmentInfo
	for _, e := range entries {
		var idx uint64
		if n, _ := fmt.Sscanf(e.Name(), "seg-%08d.log", &idx); n != 1 {
			continue
		}
		infos = append(infos, segmentInfo{path: filepath.Join(s.segmentDir(), e.Name()), index: idx})
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].index < infos[j].index })

	for i := range infos {
		final := i == len(infos)-1
		if err := s.scanOneSegment(&infos[i], final); err != nil {
			return err
		}
	}
	s.segments = infos
	return nil
}

// scanOneSegment walks one segment's frames, filling in the info. When
// final, a bad or incomplete frame truncates the file there (crash
// recovery); otherwise it is an error.
func (s *Store) scanOneSegment(info *segmentInfo, final bool) error {
	f, err := os.Open(info.path)
	if err != nil {
		return fmt.Errorf("chainstore: %w", err)
	}
	defer f.Close()

	var offset int64
	hdr := make([]byte, frameHeaderSize)
	for {
		payload, n, err := readFrame(f, hdr)
		if err == io.EOF {
			break // clean end
		}
		if err != nil {
			if !final {
				return fmt.Errorf("%w: %s at offset %d: %v", ErrCorruptSegment, filepath.Base(info.path), offset, err)
			}
			return s.truncateSegment(info, offset)
		}
		// Only the height is decoded here: Unmarshal still validates the
		// whole payload as JSON before it looks for the field, and Blocks
		// decodes (and the import re-validates) the full block when the log
		// is replayed. A frame with a good checksum is one Append wrote, so
		// it is a whole marshalled block; building every transaction just
		// to read one integer doubled the decode cost of an open.
		var frame struct {
			Header struct {
				Height uint64 `json:"height"`
			} `json:"header"`
		}
		if jsonErr := json.Unmarshal(payload, &frame); jsonErr != nil {
			if !final {
				return fmt.Errorf("%w: %s at offset %d: %v", ErrCorruptSegment, filepath.Base(info.path), offset, jsonErr)
			}
			return s.truncateSegment(info, offset)
		}
		h := frame.Header.Height
		if s.haveAny && h != s.last+1 {
			if !final {
				return fmt.Errorf("%w: %s has height %d after %d", ErrCorruptSegment, filepath.Base(info.path), h, s.last)
			}
			return s.truncateSegment(info, offset)
		}
		if info.frames == 0 {
			info.first = h
		}
		info.last = h
		info.frames++
		s.last = h
		s.haveAny = true
		offset += int64(n)
		info.size = offset
	}
	info.size = offset
	return nil
}

// truncateSegment drops everything at and after offset — the crash
// recovery path. A zero offset leaves an empty (but valid) segment.
func (s *Store) truncateSegment(info *segmentInfo, offset int64) error {
	st, err := os.Stat(info.path)
	if err != nil {
		return fmt.Errorf("chainstore: %w", err)
	}
	dropped := st.Size() - offset
	if err := os.Truncate(info.path, offset); err != nil {
		return fmt.Errorf("chainstore: recover truncate: %w", err)
	}
	info.size = offset
	s.truncated += int(dropped)
	mTruncations.Inc()
	return nil
}

// readFrame reads one frame, returning the payload and the total bytes
// consumed. io.EOF means a clean boundary; any other error means a
// short or corrupt frame.
func readFrame(r io.Reader, hdr []byte) ([]byte, int, error) {
	if _, err := io.ReadFull(r, hdr); err != nil {
		if err == io.EOF {
			return nil, 0, io.EOF
		}
		return nil, 0, fmt.Errorf("short frame header: %w", err)
	}
	length := binary.BigEndian.Uint32(hdr[0:4])
	sum := binary.BigEndian.Uint32(hdr[4:8])
	if length == 0 || length > maxFrameSize {
		return nil, 0, fmt.Errorf("implausible frame length %d", length)
	}
	payload := make([]byte, length)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, 0, fmt.Errorf("short frame payload: %w", err)
	}
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, 0, errors.New("frame checksum mismatch")
	}
	return payload, frameHeaderSize + int(length), nil
}

// openActive opens the latest segment for appending, creating the first
// one in a fresh store.
func (s *Store) openActive() error {
	if len(s.segments) == 0 {
		s.segments = append(s.segments, segmentInfo{
			path:  filepath.Join(s.segmentDir(), segmentName(1)),
			index: 1,
		})
	}
	info := &s.segments[len(s.segments)-1]
	f, err := os.OpenFile(info.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("chainstore: %w", err)
	}
	// A segment with no frames may be new: make its name durable before
	// a block is acknowledged in it (once per segment, not per append).
	if info.size == 0 && !s.opts.NoFsync {
		if err := syncDir(s.segmentDir()); err != nil {
			f.Close()
			return err
		}
	}
	s.active = f
	return nil
}

// LastHeight returns the height of the last block in the log and
// whether the log holds any blocks at all.
func (s *Store) LastHeight() (uint64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.last, s.haveAny
}

// RecoveredBytes reports how many bytes crash recovery dropped when the
// store was opened (0 for a clean shutdown).
func (s *Store) RecoveredBytes() int { return s.truncated }

// Append frames, writes and fsyncs one block. Blocks must arrive in
// height order without gaps; the first append fixes the log's starting
// height (usually 1, or snapshot+1 on a fast-synced replica).
func (s *Store) Append(b *ledger.Block) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.haveAny && b.Header.Height != s.last+1 {
		return fmt.Errorf("%w: log at %d, block %d", ErrNotContiguous, s.last, b.Header.Height)
	}
	payload, err := json.Marshal(b)
	if err != nil {
		return s.fail(fmt.Errorf("chainstore: encode block: %w", err))
	}
	frame := make([]byte, frameHeaderSize+len(payload))
	binary.BigEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	copy(frame[frameHeaderSize:], payload)

	if _, err := s.active.Write(frame); err != nil {
		return s.fail(fmt.Errorf("chainstore: append: %w", err))
	}
	if !s.opts.NoFsync {
		start := time.Now()
		// Component-labeled so profiles of a durable sealer show fsync
		// wait as chainstore.fsync rather than anonymous syscall time.
		var syncErr error
		telemetry.WithComponent("chainstore.fsync", func() { syncErr = s.active.Sync() })
		if syncErr != nil {
			return s.fail(fmt.Errorf("chainstore: fsync: %w", syncErr))
		}
		s.lastFsync = time.Since(start)
		mFsync.Observe(s.lastFsync.Seconds())
	}

	info := &s.segments[len(s.segments)-1]
	if info.frames == 0 {
		info.first = b.Header.Height
	}
	info.last = b.Header.Height
	info.frames++
	info.size += int64(len(frame))
	s.last = b.Header.Height
	s.haveAny = true
	s.lastErr = nil // a successful durable write clears the sticky error
	mAppends.Inc()
	mAppendBytes.Add(uint64(len(frame)))

	if info.size >= s.opts.SegmentBytes {
		if err := s.rollSegment(); err != nil {
			return s.fail(err)
		}
	}
	return nil
}

// rollSegment seals the active segment and starts the next one.
// Callers hold s.mu.
func (s *Store) rollSegment() error {
	if err := s.active.Close(); err != nil {
		return fmt.Errorf("chainstore: seal segment: %w", err)
	}
	next := s.segments[len(s.segments)-1].index + 1
	s.segments = append(s.segments, segmentInfo{
		path:  filepath.Join(s.segmentDir(), segmentName(next)),
		index: next,
	})
	mSegments.Set(float64(len(s.segments)))
	return s.openActive()
}

// fail records a sticky write error (Health reports unhealthy until a
// later append succeeds) and returns it.
func (s *Store) fail(err error) error {
	s.lastErr = err
	s.lastErrTime = time.Now()
	return err
}

// Blocks streams every logged block with height >= from, in order.
// It reads from disk, so it observes exactly what a restart would.
func (s *Store) Blocks(from uint64, fn func(*ledger.Block) error) error {
	s.mu.Lock()
	segs := append([]segmentInfo(nil), s.segments...)
	s.mu.Unlock()

	hdr := make([]byte, frameHeaderSize)
	for _, seg := range segs {
		if seg.frames > 0 && seg.last < from {
			continue
		}
		f, err := os.Open(seg.path)
		if err != nil {
			if os.IsNotExist(err) {
				continue // pruned concurrently
			}
			return fmt.Errorf("chainstore: %w", err)
		}
		err = func() error {
			defer f.Close()
			// Bound the walk to the frames known good at snapshot time
			// so a concurrent append's half-written frame is never read.
			r := io.LimitReader(f, seg.size)
			for {
				payload, _, err := readFrame(r, hdr)
				if err == io.EOF {
					return nil
				}
				if err != nil {
					return fmt.Errorf("chainstore: read %s: %w", filepath.Base(seg.path), err)
				}
				var blk ledger.Block
				if err := json.Unmarshal(payload, &blk); err != nil {
					return fmt.Errorf("chainstore: decode block in %s: %w", filepath.Base(seg.path), err)
				}
				if blk.Header.Height < from {
					continue
				}
				if err := fn(&blk); err != nil {
					return err
				}
			}
		}()
		if err != nil {
			return err
		}
	}
	return nil
}

// WriteGenesis persists the chain configuration. It refuses to
// overwrite an existing genesis with different content — a store is
// bound to one chain for life.
func (s *Store) WriteGenesis(exp ledger.ChainExport) error {
	exp.Blocks = nil
	path := filepath.Join(s.dir, "genesis.json")
	if prev, err := os.ReadFile(path); err == nil {
		h := sha256.New()
		if err := ledger.WriteConfig(h, exp); err != nil {
			return fmt.Errorf("chainstore: %w", err)
		}
		if sum := sha256.Sum256(prev); !bytes.Equal(h.Sum(nil), sum[:]) {
			return errors.New("chainstore: store already holds a different genesis")
		}
		return nil
	}
	return writeFileSync(path, func(w io.Writer) error { return ledger.WriteConfig(w, exp) })
}

// ReadGenesis loads the persisted chain configuration.
func (s *Store) ReadGenesis() (ledger.ChainExport, error) {
	var exp ledger.ChainExport
	data, err := os.ReadFile(filepath.Join(s.dir, "genesis.json"))
	if err != nil {
		return exp, fmt.Errorf("chainstore: %w", err)
	}
	if err := json.Unmarshal(data, &exp); err != nil {
		return exp, fmt.Errorf("chainstore: decode genesis: %w", err)
	}
	return exp, nil
}

// HasGenesis reports whether the store has been initialised.
func (s *Store) HasGenesis() bool {
	_, err := os.Stat(filepath.Join(s.dir, "genesis.json"))
	return err == nil
}

// PutMeta persists owner-defined runtime metadata (JSON-encoded) —
// e.g. well-known contract addresses the runtime must rebind on open.
func (s *Store) PutMeta(v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return fmt.Errorf("chainstore: %w", err)
	}
	return writeFileSync(filepath.Join(s.dir, "meta.json"), func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// GetMeta loads metadata stored by PutMeta into out. It returns
// os.ErrNotExist (wrapped) when no metadata was ever stored.
func (s *Store) GetMeta(out any) error {
	data, err := os.ReadFile(filepath.Join(s.dir, "meta.json"))
	if err != nil {
		return fmt.Errorf("chainstore: %w", err)
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("chainstore: decode meta: %w", err)
	}
	return nil
}

// Stats is a point-in-time summary of the store, surfaced by the node's
// debug endpoints and the offline auditor.
type Stats struct {
	Dir            string        `json:"dir"`
	Segments       int           `json:"segments"`
	Frames         int           `json:"frames"`
	LogBytes       int64         `json:"log_bytes"`
	LastHeight     uint64        `json:"last_height"`
	Snapshots      int           `json:"snapshots"`
	SnapshotHeight uint64        `json:"snapshot_height"` // newest, 0 if none
	LastFsync      time.Duration `json:"last_fsync_ns"`
	RecoveredBytes int           `json:"recovered_bytes"`
}

// Stats summarises the store.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	st := Stats{
		Dir:            s.dir,
		Segments:       len(s.segments),
		LastHeight:     s.last,
		LastFsync:      s.lastFsync,
		RecoveredBytes: s.truncated,
	}
	for _, seg := range s.segments {
		st.Frames += seg.frames
		st.LogBytes += seg.size
	}
	s.mu.Unlock()
	if heights, err := s.snapshotHeights(); err == nil {
		st.Snapshots = len(heights)
		if len(heights) > 0 {
			st.SnapshotHeight = heights[len(heights)-1]
		}
	}
	return st
}

// Close syncs and closes the active segment. The store rejects further
// appends.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.active == nil {
		return nil
	}
	if !s.opts.NoFsync {
		if err := s.active.Sync(); err != nil {
			s.active.Close()
			return fmt.Errorf("chainstore: close fsync: %w", err)
		}
	}
	return s.active.Close()
}

// writeFileSync writes a file through write via a temp file + rename,
// fsyncing the file so the rename never publishes a torn write, and
// then the directory so the rename itself survives a power loss.
func writeFileSync(path string, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("chainstore: %w", err)
	}
	bw := bufio.NewWriter(f)
	err = write(bw)
	if err == nil {
		err = bw.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("chainstore: %w", err)
	}
	return syncDir(filepath.Dir(path))
}

// syncDir fsyncs a directory, making the names created or renamed in it
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err == nil {
		err = errors.Join(d.Sync(), d.Close())
	}
	if err != nil {
		return fmt.Errorf("chainstore: sync dir: %w", err)
	}
	return nil
}
