package identity

import (
	"testing"

	"pds2/internal/crypto"
)

func newTestIdentity(t *testing.T, name string, seed uint64) *Identity {
	t.Helper()
	return New(name, crypto.NewDRBGFromUint64(seed, "identity-test"))
}

func TestIdentityDeterministic(t *testing.T) {
	a := newTestIdentity(t, "alice", 1)
	b := newTestIdentity(t, "alice", 1)
	if a.Address() != b.Address() {
		t.Fatal("same seed produced different addresses")
	}
	c := newTestIdentity(t, "carol", 2)
	if a.Address() == c.Address() {
		t.Fatal("different seeds produced the same address")
	}
}

func TestSignVerify(t *testing.T) {
	id := newTestIdentity(t, "alice", 1)
	msg := []byte("hello pds2")
	sig := id.Sign(msg)
	if !Verify(id.PublicKey(), msg, sig) {
		t.Fatal("valid signature rejected")
	}
	if Verify(id.PublicKey(), []byte("other"), sig) {
		t.Fatal("signature verified for wrong message")
	}
	other := newTestIdentity(t, "bob", 2)
	if Verify(other.PublicKey(), msg, sig) {
		t.Fatal("signature verified under wrong key")
	}
}

func TestVerifyRejectsMalformedInputs(t *testing.T) {
	id := newTestIdentity(t, "alice", 1)
	sig := id.Sign([]byte("m"))
	if Verify(id.PublicKey()[:10], []byte("m"), sig) {
		t.Fatal("short public key accepted")
	}
	if Verify(id.PublicKey(), []byte("m"), sig[:10]) {
		t.Fatal("short signature accepted")
	}
}

func TestAddressHexRoundTrip(t *testing.T) {
	id := newTestIdentity(t, "alice", 1)
	addr := id.Address()
	parsed, err := AddressFromHex(addr.Hex())
	if err != nil {
		t.Fatal(err)
	}
	if parsed != addr {
		t.Fatal("address hex round trip failed")
	}
	if _, err := AddressFromHex("nothex"); err == nil {
		t.Fatal("bad hex accepted")
	}
	if _, err := AddressFromHex("abcd"); err == nil {
		t.Fatal("short hex accepted")
	}
}

func TestRegistryRolesAndKeys(t *testing.T) {
	r := NewRegistry()
	alice := newTestIdentity(t, "alice", 1)
	addr, err := r.Register(alice.PublicKey(), RoleProvider)
	if err != nil {
		t.Fatal(err)
	}
	if addr != alice.Address() {
		t.Fatal("registered address mismatch")
	}
	if !r.HasRole(addr, RoleProvider) {
		t.Fatal("role not recorded")
	}
	if r.HasRole(addr, RoleExecutor) {
		t.Fatal("unexpected role")
	}
	// Multi-role registration extends the role set.
	if _, err := r.Register(alice.PublicKey(), RoleExecutor); err != nil {
		t.Fatal(err)
	}
	if !r.HasRole(addr, RoleExecutor) || !r.HasRole(addr, RoleProvider) {
		t.Fatal("role set not extended")
	}
	if r.Len() != 1 {
		t.Fatalf("Len = %d, want 1", r.Len())
	}
	key, ok := r.Key(addr)
	if !ok || !key.Equal(alice.PublicKey()) {
		t.Fatal("Key lookup failed")
	}
}
