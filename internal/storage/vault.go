package storage

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"pds2/internal/crypto"
	"pds2/internal/identity"
	"pds2/internal/semantic"
)

// DataRef is the public description of a stored dataset: everything the
// marketplace may see. The data itself stays encrypted in the vault.
type DataRef struct {
	ID    crypto.Digest     `json:"id"` // digest of the plaintext
	Owner identity.Address  `json:"owner"`
	Size  int64             `json:"size"`
	Meta  semantic.Metadata `json:"meta"`
}

// Vault is one provider's encrypted data store. Every item is encrypted
// under its own derived key, so access can be granted per item without
// exposing anything else in the vault.
type Vault struct {
	owner *identity.Identity
	store BlobStore
	root  []byte // vault master secret
	rng   *crypto.DRBG
	index map[crypto.Digest]DataRef
}

// NewVault creates a vault for owner on top of the given blob store.
func NewVault(owner *identity.Identity, store BlobStore, rng *crypto.DRBG) *Vault {
	return &Vault{
		owner: owner,
		store: store,
		root:  rng.Bytes(32),
		rng:   rng.Fork("vault"),
		index: make(map[crypto.Digest]DataRef),
	}
}

func (v *Vault) itemKey(id crypto.Digest) []byte {
	return crypto.DeriveKey(v.root, "item/"+id.Hex())
}

// Store encrypts and stores a dataset with its metadata, returning the
// public reference. The ID is the plaintext digest, so anyone holding
// the plaintext can verify it against the on-chain registration.
func (v *Vault) Store(data []byte, meta semantic.Metadata) (DataRef, error) {
	if len(data) == 0 {
		return DataRef{}, errors.New("storage: refusing to store empty dataset")
	}
	id := crypto.HashBytes(data)
	ct, err := encryptBlob(v.itemKey(id), data, v.rng)
	if err != nil {
		return DataRef{}, err
	}
	if err := v.store.Put(id, ct); err != nil {
		return DataRef{}, err
	}
	ref := DataRef{ID: id, Owner: v.owner.Address(), Size: int64(len(data)), Meta: meta}
	v.index[id] = ref
	return ref, nil
}

// Retrieve decrypts an item for the owner.
func (v *Vault) Retrieve(id crypto.Digest) ([]byte, error) {
	ct, err := v.store.Get(id)
	if err != nil {
		return nil, err
	}
	pt, err := decryptBlob(v.itemKey(id), ct)
	if err != nil {
		return nil, err
	}
	if crypto.HashBytes(pt) != id {
		return nil, errors.New("storage: content digest mismatch after decrypt")
	}
	return pt, nil
}

// Refs returns all references in the vault, sorted by ID for determinism.
func (v *Vault) Refs() []DataRef {
	out := make([]DataRef, 0, len(v.index))
	for _, ref := range v.index {
		out = append(out, ref)
	}
	sort.Slice(out, func(i, j int) bool {
		return out[i].ID.Hex() < out[j].ID.Hex()
	})
	return out
}

// Match returns the vault's references whose metadata satisfies the
// predicate — the storage-side half of workload discovery (§IV-C): the
// decision uses metadata only, never the data.
func (v *Vault) Match(pred semantic.Expr) []DataRef {
	var out []DataRef
	for _, ref := range v.Refs() {
		if pred.Eval(ref.Meta) {
			out = append(out, ref)
		}
	}
	return out
}

// Grant is a signed, workload-bound capability releasing one item's
// decryption key to one executor. In production the key would be wrapped
// for the grantee's public key; the simulation carries it in the clear
// inside the (authenticated) grant object.
type Grant struct {
	DataID     crypto.Digest    `json:"data_id"`
	WorkloadID crypto.Digest    `json:"workload_id"`
	Grantee    identity.Address `json:"grantee"`
	Expiry     uint64           `json:"expiry"` // ledger height
	Key        []byte           `json:"key"`
	Owner      identity.Address `json:"owner"`
	Pub        []byte           `json:"pub"`
	Sig        []byte           `json:"sig"`
}

func grantSigningBytes(g *Grant) []byte {
	buf := make([]byte, 0, 2*crypto.HashSize+2*identity.AddressSize+8+len(g.Key)+24)
	buf = append(buf, "pds2/grant/v1"...)
	buf = append(buf, g.DataID[:]...)
	buf = append(buf, g.WorkloadID[:]...)
	buf = append(buf, g.Grantee[:]...)
	buf = append(buf, g.Owner[:]...)
	buf = binary.BigEndian.AppendUint64(buf, g.Expiry)
	buf = append(buf, g.Key...)
	return buf
}

// Grant issues an access capability for one item to one executor for one
// workload.
func (v *Vault) Grant(id, workloadID crypto.Digest, grantee identity.Address, expiry uint64) (Grant, error) {
	if _, ok := v.index[id]; !ok {
		return Grant{}, fmt.Errorf("storage: no item %s in vault", id.Short())
	}
	g := Grant{
		DataID:     id,
		WorkloadID: workloadID,
		Grantee:    grantee,
		Expiry:     expiry,
		Key:        v.itemKey(id),
		Owner:      v.owner.Address(),
		Pub:        v.owner.PublicKey(),
	}
	g.Sig = v.owner.Sign(grantSigningBytes(&g))
	return g, nil
}

// Grant verification errors.
var (
	ErrGrantSignature = errors.New("storage: grant signature invalid")
	ErrGrantGrantee   = errors.New("storage: grant bound to a different executor")
	ErrGrantWorkload  = errors.New("storage: grant bound to a different workload")
	ErrGrantExpired   = errors.New("storage: grant expired")
)

// Verify checks the grant against the claimed executor, workload and
// ledger height.
func (g *Grant) Verify(workloadID crypto.Digest, grantee identity.Address, height uint64) error {
	if g.WorkloadID != workloadID {
		return ErrGrantWorkload
	}
	if g.Grantee != grantee {
		return ErrGrantGrantee
	}
	if height > g.Expiry {
		return ErrGrantExpired
	}
	if identity.AddressFromPub(g.Pub) != g.Owner {
		return ErrGrantSignature
	}
	if !identity.Verify(g.Pub, grantSigningBytes(g), g.Sig) {
		return ErrGrantSignature
	}
	return nil
}

// Open decrypts a ciphertext fetched from a blob store using the grant's
// key, verifying content integrity against the granted data ID.
func (g *Grant) Open(ciphertext []byte) ([]byte, error) {
	pt, err := decryptBlob(g.Key, ciphertext)
	if err != nil {
		return nil, err
	}
	if crypto.HashBytes(pt) != g.DataID {
		return nil, errors.New("storage: grant opened data with wrong digest")
	}
	return pt, nil
}

// encryptBlob seals data with AES-256-GCM under key.
func encryptBlob(key, data []byte, rng *crypto.DRBG) ([]byte, error) {
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("storage: cipher: %w", err)
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("storage: gcm: %w", err)
	}
	nonce := rng.Bytes(gcm.NonceSize())
	return gcm.Seal(nonce, nonce, data, nil), nil
}

// decryptBlob reverses encryptBlob.
func decryptBlob(key, blob []byte) ([]byte, error) {
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("storage: cipher: %w", err)
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("storage: gcm: %w", err)
	}
	if len(blob) < gcm.NonceSize() {
		return nil, errors.New("storage: ciphertext too short")
	}
	nonce, ct := blob[:gcm.NonceSize()], blob[gcm.NonceSize():]
	pt, err := gcm.Open(nil, nonce, ct, nil)
	if err != nil {
		return nil, errors.New("storage: decryption failed (wrong key or tampered data)")
	}
	return pt, nil
}
