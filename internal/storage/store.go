// Package storage implements the storage subsystem of PDS² (§II-C): it
// "is responsible for permanently storing the providers' data. It then
// matches data against available workloads and gives the executors
// access to them, when authorized by the providers."
//
// Data is encrypted at rest under per-item keys derived from the owner's
// vault key, addressed by the plaintext content digest (which is also the
// identifier registered on the governance ledger and deeded as an NFT),
// and released to executors only against a signed, workload-bound access
// grant — the §II-E requirement that even storage operators cannot read
// the data they hold.
package storage

import (
	"errors"
	"fmt"
	"sync"

	"pds2/internal/crypto"
)

// BlobStore is the raw ciphertext store under a vault. Implementations
// must be safe for concurrent use.
type BlobStore interface {
	// Put stores a blob under the given key, overwriting any previous
	// content.
	Put(key crypto.Digest, blob []byte) error

	// Get returns the blob stored under key.
	Get(key crypto.Digest) ([]byte, error)
}

// ErrNotFound is returned by Get for missing blobs.
var ErrNotFound = errors.New("storage: blob not found")

// MemStore is an in-memory BlobStore, the default for simulations.
type MemStore struct {
	mu    sync.RWMutex
	blobs map[crypto.Digest][]byte
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{blobs: make(map[crypto.Digest][]byte)}
}

// Put implements BlobStore.
func (s *MemStore) Put(key crypto.Digest, blob []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.blobs[key] = append([]byte(nil), blob...)
	return nil
}

// Get implements BlobStore.
func (s *MemStore) Get(key crypto.Digest) ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	b, ok := s.blobs[key]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, key.Short())
	}
	return append([]byte(nil), b...), nil
}

// Len returns the number of stored blobs.
func (s *MemStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.blobs)
}
