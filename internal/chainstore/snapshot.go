package chainstore

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"pds2/internal/ledger"
)

// snapshotsToKeep bounds the snapshot directory: the newest snapshot is
// the restart point, the previous one survives as a fallback in case
// the newest is discovered corrupt on open.
const snapshotsToKeep = 2

func snapshotName(height uint64) string { return fmt.Sprintf("snap-%012d.json", height) }

// WriteSnapshot persists a state snapshot (temp file + fsync + rename),
// prunes snapshots beyond the retention bound, and drops log segments
// made redundant by the new snapshot — segments whose every block is at
// or below the snapshot height and which are no longer the append
// target.
func (s *Store) WriteSnapshot(snap *ledger.StateSnapshot) error {
	if snap == nil || snap.Head == nil {
		return fmt.Errorf("chainstore: nil snapshot")
	}
	path := filepath.Join(s.snapshotDir(), snapshotName(snap.Height()))
	if err := writeFileSync(path, func(w io.Writer) error { return ledger.WriteSnapshot(w, snap) }); err != nil {
		return err
	}
	mSnapshots.Inc()
	s.pruneSnapshots()
	s.pruneSegments(snap.Height())
	return nil
}

// snapshotHeights lists persisted snapshot heights in ascending order.
func (s *Store) snapshotHeights() ([]uint64, error) {
	entries, err := os.ReadDir(s.snapshotDir())
	if err != nil {
		return nil, fmt.Errorf("chainstore: %w", err)
	}
	var heights []uint64
	for _, e := range entries {
		var h uint64
		if n, _ := fmt.Sscanf(e.Name(), "snap-%012d.json", &h); n == 1 {
			heights = append(heights, h)
		}
	}
	sort.Slice(heights, func(i, j int) bool { return heights[i] < heights[j] })
	return heights, nil
}

// LatestSnapshot loads the newest snapshot, or (nil, nil) when the
// store has none. A snapshot that fails to parse is skipped in favour
// of the next-newest — integrity against the sealed state root is
// enforced later by ledger.NewChainFromSnapshot.
func (s *Store) LatestSnapshot() (*ledger.StateSnapshot, error) {
	heights, err := s.snapshotHeights()
	if err != nil {
		return nil, err
	}
	for i := len(heights) - 1; i >= 0; i-- {
		f, err := os.Open(filepath.Join(s.snapshotDir(), snapshotName(heights[i])))
		if err != nil {
			continue
		}
		snap, err := ledger.ReadSnapshot(f)
		f.Close()
		if err == nil {
			return snap, nil
		}
	}
	return nil, nil
}

// pruneSnapshots removes all but the newest snapshotsToKeep snapshots.
func (s *Store) pruneSnapshots() {
	heights, err := s.snapshotHeights()
	if err != nil || len(heights) <= snapshotsToKeep {
		return
	}
	for _, h := range heights[:len(heights)-snapshotsToKeep] {
		os.Remove(filepath.Join(s.snapshotDir(), snapshotName(h)))
	}
}

// pruneSegments deletes sealed segments fully covered by a snapshot at
// the given height. The restart path only replays blocks above the
// snapshot, so those frames can never be read again — except by the
// fallback snapshot, so pruning keeps every segment above the OLDEST
// retained snapshot instead of the newest.
func (s *Store) pruneSegments(snapHeight uint64) {
	floor := snapHeight
	if heights, err := s.snapshotHeights(); err == nil && len(heights) > 0 {
		floor = heights[0]
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	keep := s.segments[:0]
	for i := range s.segments {
		seg := s.segments[i]
		active := i == len(s.segments)-1
		if !active && seg.frames > 0 && seg.last <= floor {
			os.Remove(seg.path)
			continue
		}
		keep = append(keep, seg)
	}
	s.segments = keep
	mSegments.Set(float64(len(s.segments)))
}
