package storage

import (
	"bytes"
	"errors"
	"testing"

	"pds2/internal/crypto"
	"pds2/internal/identity"
	"pds2/internal/semantic"
)

func testVault(t *testing.T, seed uint64) (*Vault, *identity.Identity) {
	t.Helper()
	rng := crypto.NewDRBGFromUint64(seed, "storage-test")
	owner := identity.New("owner", rng)
	return NewVault(owner, NewMemStore(), rng), owner
}

func sensorMeta(samples float64) semantic.Metadata {
	return semantic.Metadata{
		"category": semantic.String("sensor.temperature"),
		"samples":  semantic.Number(samples),
	}
}

func TestMemStoreCRUD(t *testing.T) {
	s := NewMemStore()
	k := crypto.HashString("k")
	if _, err := s.Get(k); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
	if err := s.Put(k, []byte("v")); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(k)
	if err != nil || !bytes.Equal(got, []byte("v")) {
		t.Fatalf("get = %q, %v", got, err)
	}
	if s.Len() != 1 {
		t.Fatalf("len = %d", s.Len())
	}
}

func TestMemStoreCopies(t *testing.T) {
	s := NewMemStore()
	k := crypto.HashString("k")
	val := []byte("abc")
	s.Put(k, val)
	val[0] = 'X'
	got, _ := s.Get(k)
	if got[0] != 'a' {
		t.Fatal("store aliases caller slice")
	}
	got[1] = 'Y'
	got2, _ := s.Get(k)
	if got2[1] != 'b' {
		t.Fatal("get aliases stored slice")
	}
}

func TestVaultStoreRetrieve(t *testing.T) {
	v, _ := testVault(t, 1)
	data := []byte("temperature series")
	ref, err := v.Store(data, sensorMeta(100))
	if err != nil {
		t.Fatal(err)
	}
	if ref.ID != crypto.HashBytes(data) {
		t.Fatal("ID is not the plaintext digest")
	}
	if ref.Size != int64(len(data)) {
		t.Fatalf("size = %d", ref.Size)
	}
	got, err := v.Retrieve(ref.ID)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("retrieve = %q, %v", got, err)
	}
}

func TestVaultRejectsEmpty(t *testing.T) {
	v, _ := testVault(t, 2)
	if _, err := v.Store(nil, nil); err == nil {
		t.Fatal("empty dataset stored")
	}
}

func TestVaultEncryptsAtRest(t *testing.T) {
	rng := crypto.NewDRBGFromUint64(3, "storage-test")
	owner := identity.New("owner", rng)
	backing := NewMemStore()
	v := NewVault(owner, backing, rng)
	data := []byte("very secret plaintext content")
	ref, _ := v.Store(data, nil)
	raw, _ := backing.Get(ref.ID)
	if bytes.Contains(raw, []byte("secret")) {
		t.Fatal("plaintext visible in backing store")
	}
}

func TestVaultMatch(t *testing.T) {
	v, _ := testVault(t, 4)
	v.Store([]byte("a"), sensorMeta(10))
	v.Store([]byte("b"), sensorMeta(500))
	v.Store([]byte("c"), semantic.Metadata{"category": semantic.String("gps.track")})

	pred := semantic.MustParse(`category isa "sensor" and samples >= 100`)
	refs := v.Match(pred)
	if len(refs) != 1 {
		t.Fatalf("matched %d refs", len(refs))
	}
	if refs[0].ID != crypto.HashBytes([]byte("b")) {
		t.Fatal("wrong ref matched")
	}
}

func TestGrantFlow(t *testing.T) {
	rng := crypto.NewDRBGFromUint64(5, "storage-test")
	owner := identity.New("owner", rng)
	executor := identity.New("executor", rng)
	backing := NewMemStore()
	v := NewVault(owner, backing, rng)
	data := []byte("granted dataset")
	ref, _ := v.Store(data, sensorMeta(50))

	wid := crypto.HashString("workload")
	grant, err := v.Grant(ref.ID, wid, executor.Address(), 100)
	if err != nil {
		t.Fatal(err)
	}

	// The executor fetches the ciphertext from a storage node and opens.
	node := NewNode(NewMemStore())
	if err := node.HostFromVault(v, ref.ID); err != nil {
		t.Fatal(err)
	}
	ct, err := node.Release(&grant, executor.Address(), wid, 50)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := grant.Open(ct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pt, data) {
		t.Fatalf("opened %q", pt)
	}
}

func TestGrantBindings(t *testing.T) {
	rng := crypto.NewDRBGFromUint64(6, "storage-test")
	owner := identity.New("owner", rng)
	executor := identity.New("executor", rng)
	mallory := identity.New("mallory", rng)
	v := NewVault(owner, NewMemStore(), rng)
	ref, _ := v.Store([]byte("x"), nil)
	wid := crypto.HashString("w")
	grant, _ := v.Grant(ref.ID, wid, executor.Address(), 100)

	if err := grant.Verify(crypto.HashString("other"), executor.Address(), 1); !errors.Is(err, ErrGrantWorkload) {
		t.Fatalf("want ErrGrantWorkload, got %v", err)
	}
	if err := grant.Verify(wid, mallory.Address(), 1); !errors.Is(err, ErrGrantGrantee) {
		t.Fatalf("want ErrGrantGrantee, got %v", err)
	}
	if err := grant.Verify(wid, executor.Address(), 101); !errors.Is(err, ErrGrantExpired) {
		t.Fatalf("want ErrGrantExpired, got %v", err)
	}
	// Tampered key invalidates the signature.
	bad := grant
	bad.Key = append([]byte(nil), grant.Key...)
	bad.Key[0] ^= 1
	if err := bad.Verify(wid, executor.Address(), 1); !errors.Is(err, ErrGrantSignature) {
		t.Fatalf("want ErrGrantSignature, got %v", err)
	}
}

func TestGrantForMissingItem(t *testing.T) {
	v, _ := testVault(t, 7)
	if _, err := v.Grant(crypto.HashString("none"), crypto.HashString("w"), identity.ZeroAddress, 1); err == nil {
		t.Fatal("grant for missing item issued")
	}
}

func TestGrantOpenWrongKeyFails(t *testing.T) {
	rng := crypto.NewDRBGFromUint64(8, "storage-test")
	owner := identity.New("owner", rng)
	executor := identity.New("executor", rng)
	backing := NewMemStore()
	v := NewVault(owner, backing, rng)
	refA, _ := v.Store([]byte("item a"), nil)
	refB, _ := v.Store([]byte("item b"), nil)
	wid := crypto.HashString("w")
	grantA, _ := v.Grant(refA.ID, wid, executor.Address(), 100)
	ctB, _ := backing.Get(refB.ID)
	if _, err := grantA.Open(ctB); err == nil {
		t.Fatal("grant for item A opened item B")
	}
}

func TestNodeMatchAndLeakageBudget(t *testing.T) {
	rng := crypto.NewDRBGFromUint64(9, "storage-test")
	owner := identity.New("owner", rng)
	v := NewVault(owner, NewMemStore(), rng)
	r1, _ := v.Store([]byte("a"), sensorMeta(500))
	r2, _ := v.Store([]byte("b"), sensorMeta(5))

	node := NewNode(NewMemStore())
	node.HostFromVault(v, r1.ID)
	node.HostFromVault(v, r2.ID)

	refs, err := node.Match(semantic.MustParse(`samples >= 100`))
	if err != nil || len(refs) != 1 {
		t.Fatalf("match: %d refs, %v", len(refs), err)
	}

	node.LeakageBudget = 2.5
	// A range query (weight 2) passes; an exact probe (weight 3) fails.
	if _, err := node.Match(semantic.MustParse(`samples >= 100`)); err != nil {
		t.Fatalf("range query refused: %v", err)
	}
	_, err = node.Match(semantic.MustParse(`samples == 500`))
	var lb *ErrLeakageBudget
	if !errors.As(err, &lb) {
		t.Fatalf("want ErrLeakageBudget, got %v", err)
	}
}

func TestNodeReleaseChecksOwner(t *testing.T) {
	rng := crypto.NewDRBGFromUint64(10, "storage-test")
	owner := identity.New("owner", rng)
	executor := identity.New("executor", rng)
	mallory := identity.New("mallory", rng)

	v := NewVault(owner, NewMemStore(), rng)
	ref, _ := v.Store([]byte("data"), nil)
	node := NewNode(NewMemStore())
	node.HostFromVault(v, ref.ID)

	// Mallory runs her own vault and forges a "grant" over the same data
	// ID; the node must reject it because she does not own the data.
	mv := NewVault(mallory, NewMemStore(), rng)
	mref, _ := mv.Store([]byte("data"), nil) // same content, same ID
	wid := crypto.HashString("w")
	forged, _ := mv.Grant(mref.ID, wid, executor.Address(), 100)
	if _, err := node.Release(&forged, executor.Address(), wid, 1); err == nil {
		t.Fatal("node released data against a non-owner grant")
	}
}

func TestNodeReleaseUnknownData(t *testing.T) {
	node := NewNode(NewMemStore())
	g := &Grant{DataID: crypto.HashString("missing")}
	if _, err := node.Release(g, identity.ZeroAddress, crypto.HashString("w"), 1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
}
