// Package identity implements the actor model of PDS²: every consumer,
// provider, executor, storage node and device owns an Ed25519 key pair
// from which a short ledger address is derived. The package also provides
// the participation certificates of Fig. 2 — the signed statements by
// which a provider authorizes an executor to use a specific dataset for a
// specific workload — and the verification logic the governance layer
// runs over them.
package identity

import (
	"crypto/ed25519"
	"encoding/hex"
	"fmt"

	"pds2/internal/crypto"
)

// AddressSize is the length of a ledger address in bytes.
const AddressSize = 20

// Address identifies an actor on the governance ledger. It is the first
// 20 bytes of the SHA-256 hash of the actor's public key, mirroring how
// Ethereum derives addresses from keys.
type Address [AddressSize]byte

// ZeroAddress is the all-zero address, used for contract-creation
// transactions and as a "nobody" sentinel.
var ZeroAddress Address

// AddressFromPub derives the ledger address of an Ed25519 public key.
func AddressFromPub(pub ed25519.PublicKey) Address {
	d := crypto.HashBytes(pub)
	var a Address
	copy(a[:], d[:AddressSize])
	return a
}

// Hex returns the lowercase hex encoding of the address.
func (a Address) Hex() string { return hex.EncodeToString(a[:]) }

// Short returns the first 8 hex characters, for logs.
func (a Address) Short() string { return a.Hex()[:8] }

// String implements fmt.Stringer.
func (a Address) String() string { return a.Hex() }

// IsZero reports whether a is the zero address.
func (a Address) IsZero() bool { return a == ZeroAddress }

// MarshalText implements encoding.TextMarshaler.
func (a Address) MarshalText() ([]byte, error) { return []byte(a.Hex()), nil }

// UnmarshalText implements encoding.TextUnmarshaler.
func (a *Address) UnmarshalText(text []byte) error {
	b, err := hex.DecodeString(string(text))
	if err != nil {
		return fmt.Errorf("identity: invalid address hex: %w", err)
	}
	if len(b) != AddressSize {
		return fmt.Errorf("identity: address must be %d bytes, got %d", AddressSize, len(b))
	}
	copy(a[:], b)
	return nil
}

// AddressFromHex parses a 40-character hex string into an Address.
func AddressFromHex(s string) (Address, error) {
	var a Address
	err := a.UnmarshalText([]byte(s))
	return a, err
}

// Role labels the function an actor performs on the platform. A single
// identity may act in several roles (§II-C: "each entity … can act in
// multiple roles").
type Role string

// The five platform roles of Fig. 1, plus Device for the IoT hardware
// identities of §IV-B.
const (
	RoleConsumer Role = "consumer"
	RoleProvider Role = "provider"
	RoleExecutor Role = "executor"
	RoleStorage  Role = "storage"
	RoleGovernor Role = "governor"
	RoleDevice   Role = "device"
)

// Identity is a full actor identity: the key pair plus a human-readable
// name used only in logs and reports.
type Identity struct {
	Name string
	priv ed25519.PrivateKey
	pub  ed25519.PublicKey
	addr Address
}

// New deterministically derives an identity from the given DRBG. All PDS²
// simulations create identities this way so that runs are reproducible.
func New(name string, rng *crypto.DRBG) *Identity {
	seed := rng.Bytes(ed25519.SeedSize)
	priv := ed25519.NewKeyFromSeed(seed)
	pub := priv.Public().(ed25519.PublicKey)
	return &Identity{Name: name, priv: priv, pub: pub, addr: AddressFromPub(pub)}
}

// Address returns the actor's ledger address.
func (id *Identity) Address() Address { return id.addr }

// PublicKey returns the actor's public key.
func (id *Identity) PublicKey() ed25519.PublicKey {
	return append(ed25519.PublicKey(nil), id.pub...)
}

// Sign signs msg with the actor's private key.
func (id *Identity) Sign(msg []byte) []byte {
	return ed25519.Sign(id.priv, msg)
}

// Verify reports whether sig is a valid signature over msg under pub.
func Verify(pub ed25519.PublicKey, msg, sig []byte) bool {
	if len(pub) != ed25519.PublicKeySize || len(sig) != ed25519.SignatureSize {
		return false
	}
	return ed25519.Verify(pub, msg, sig)
}

// Registry maps addresses to public keys and declared roles. The
// governance layer consults it when validating signatures on-chain.
type Registry struct {
	keys  map[Address]ed25519.PublicKey
	roles map[Address]map[Role]bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		keys:  make(map[Address]ed25519.PublicKey),
		roles: make(map[Address]map[Role]bool),
	}
}

// Register records the public key of an actor and grants it a role.
// Registering an existing actor with a new role extends its role set.
// It returns an error if a different key is already registered for the
// same address (which would indicate a hash collision or forgery).
func (r *Registry) Register(pub ed25519.PublicKey, role Role) (Address, error) {
	addr := AddressFromPub(pub)
	if existing, ok := r.keys[addr]; ok {
		if !existing.Equal(pub) {
			return ZeroAddress, fmt.Errorf("identity: address %s already bound to a different key", addr.Short())
		}
	} else {
		r.keys[addr] = append(ed25519.PublicKey(nil), pub...)
	}
	if r.roles[addr] == nil {
		r.roles[addr] = make(map[Role]bool)
	}
	r.roles[addr][role] = true
	return addr, nil
}

// Key returns the registered public key for addr.
func (r *Registry) Key(addr Address) (ed25519.PublicKey, bool) {
	k, ok := r.keys[addr]
	return k, ok
}

// HasRole reports whether addr has been registered under role.
func (r *Registry) HasRole(addr Address, role Role) bool {
	return r.roles[addr][role]
}

// Len returns the number of registered actors.
func (r *Registry) Len() int { return len(r.keys) }
