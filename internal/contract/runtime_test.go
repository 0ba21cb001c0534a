package contract

import (
	"errors"
	"strings"
	"testing"

	"pds2/internal/crypto"
	"pds2/internal/identity"
	"pds2/internal/ledger"
)

// counterContract is a minimal test contract: an owner-set counter with
// increment, a failing method and a view.
type counterContract struct{}

func (counterContract) Init(ctx *Context, args []byte) error {
	ctx.SetUint64("count", ctx.Args("bad init args", args).Uint64())
	ctx.Set("owner", ctx.Caller[:])
	return nil
}

func (counterContract) Call(ctx *Context, method string, args []byte) ([]byte, error) {
	switch method {
	case "inc":
		v := ctx.GetUint64("count") + 1
		ctx.SetUint64("count", v)
		ctx.Emit("Incremented", NewEncoder().Uint64(v).Bytes())
		return NewEncoder().Uint64(v).Bytes(), nil
	case "get":
		return NewEncoder().Uint64(ctx.GetUint64("count")).Bytes(), nil
	case "boom":
		// Mutate first, then revert: effects must be rolled back.
		ctx.SetUint64("count", 9999)
		return nil, Revertf("boom")
	case "burn":
		for {
			ctx.UseGas(10_000)
		}
	case "callOther":
		return ctx.CallContract(ctx.Args("bad args", args).Address(), "inc", nil, 0)
	case "recurse":
		return ctx.CallContract(ctx.Self, "recurse", nil, 0)
	default:
		return nil, ErrUnknownMethod
	}
}

// payoutContract holds value and pays it out on demand; used to test
// native-value handling inside contracts.
type payoutContract struct{}

func (payoutContract) Init(*Context, []byte) error { return nil }

func (payoutContract) Call(ctx *Context, method string, args []byte) ([]byte, error) {
	switch method {
	case "payout":
		in := ctx.Args("bad args", args)
		ctx.Transfer(in.Address(), in.Uint64())
		return nil, nil
	default:
		return nil, ErrUnknownMethod
	}
}

// testEnv is a chain wired to a contract runtime with two funded users.
type testEnv struct {
	chain     *ledger.Chain
	rt        *Runtime
	authority *identity.Identity
	alice     *identity.Identity
	bob       *identity.Identity
	ts        uint64
}

func newTestEnv(t *testing.T) *testEnv {
	t.Helper()
	rt := NewRuntime()
	if err := rt.RegisterCode("test/counter", counterContract{}); err != nil {
		t.Fatal(err)
	}
	if err := rt.RegisterCode("test/payout", payoutContract{}); err != nil {
		t.Fatal(err)
	}
	authority := identity.New("auth", crypto.NewDRBGFromUint64(100, "contract-test"))
	alice := identity.New("alice", crypto.NewDRBGFromUint64(1, "contract-test"))
	bob := identity.New("bob", crypto.NewDRBGFromUint64(2, "contract-test"))
	chain, err := ledger.NewChain(ledger.ChainConfig{
		Authorities: []identity.Address{authority.Address()},
		Applier:     rt,
		GenesisAlloc: map[identity.Address]uint64{
			alice.Address(): 1_000_000,
			bob.Address():   1_000_000,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return &testEnv{chain: chain, rt: rt, authority: authority, alice: alice, bob: bob}
}

// run executes one transaction in its own block and returns the receipt.
func (e *testEnv) run(t *testing.T, tx *ledger.Transaction) *ledger.Receipt {
	t.Helper()
	e.ts++
	if _, err := e.chain.ProposeBlock(e.authority, e.ts, []*ledger.Transaction{tx}); err != nil {
		t.Fatalf("propose: %v", err)
	}
	rcpt, ok := e.chain.Receipt(tx.Hash())
	if !ok {
		t.Fatal("missing receipt")
	}
	return rcpt
}

// deployCounter deploys a counter starting at start and returns its address.
func (e *testEnv) deployCounter(t *testing.T, start uint64) identity.Address {
	t.Helper()
	nonce := e.chain.State().Nonce(e.alice.Address())
	data := DeployData("test/counter", NewEncoder().Uint64(start).Bytes())
	tx := ledger.SignTx(e.alice, identity.ZeroAddress, 0, nonce, 10_000_000, data)
	rcpt := e.run(t, tx)
	if !rcpt.Succeeded() {
		t.Fatalf("deploy failed: %s", rcpt.Err)
	}
	var addr identity.Address
	copy(addr[:], rcpt.Return)
	return addr
}

func TestDeployAndCall(t *testing.T) {
	e := newTestEnv(t)
	counter := e.deployCounter(t, 10)

	nonce := e.chain.State().Nonce(e.alice.Address())
	tx := ledger.SignTx(e.alice, counter, 0, nonce, 1_000_000, CallData("inc", nil))
	rcpt := e.run(t, tx)
	if !rcpt.Succeeded() {
		t.Fatalf("call failed: %s", rcpt.Err)
	}
	dec := NewDecoder(rcpt.Return)
	if v := dec.Uint64(); dec.Err() != nil || v != 11 {
		t.Fatalf("inc returned %d, %v", v, dec.Err())
	}
	if len(rcpt.Events) != 1 || rcpt.Events[0].Topic != "Incremented" {
		t.Fatalf("events: %+v", rcpt.Events)
	}
}

func TestViewCall(t *testing.T) {
	e := newTestEnv(t)
	counter := e.deployCounter(t, 5)
	ret, err := e.rt.View(e.chain.State(), e.bob.Address(), counter, "get", nil)
	if err != nil {
		t.Fatal(err)
	}
	if v := NewDecoder(ret).Uint64(); v != 5 {
		t.Fatalf("view returned %d", v)
	}
	// Views cannot mutate.
	if _, err := e.rt.View(e.chain.State(), e.bob.Address(), counter, "inc", nil); err == nil {
		t.Fatal("mutating view accepted")
	}
}

func TestRevertRollsBackState(t *testing.T) {
	e := newTestEnv(t)
	counter := e.deployCounter(t, 7)

	nonce := e.chain.State().Nonce(e.alice.Address())
	tx := ledger.SignTx(e.alice, counter, 0, nonce, 1_000_000, CallData("boom", nil))
	rcpt := e.run(t, tx)
	if rcpt.Succeeded() {
		t.Fatal("boom succeeded")
	}
	if !strings.Contains(rcpt.Err, "boom") {
		t.Fatalf("revert reason lost: %q", rcpt.Err)
	}
	// Counter still 7.
	ret, err := e.rt.View(e.chain.State(), e.alice.Address(), counter, "get", nil)
	if err != nil {
		t.Fatal(err)
	}
	if v := NewDecoder(ret).Uint64(); v != 7 {
		t.Fatalf("state not rolled back: count = %d", v)
	}
	// Nonce was still consumed.
	if e.chain.State().Nonce(e.alice.Address()) != nonce+1 {
		t.Fatal("failed call did not consume nonce")
	}
}

func TestOutOfGas(t *testing.T) {
	e := newTestEnv(t)
	counter := e.deployCounter(t, 0)
	nonce := e.chain.State().Nonce(e.alice.Address())
	tx := ledger.SignTx(e.alice, counter, 0, nonce, 200_000, CallData("burn", nil))
	rcpt := e.run(t, tx)
	if rcpt.Succeeded() {
		t.Fatal("gas burner succeeded")
	}
	if !strings.Contains(rcpt.Err, "out of gas") {
		t.Fatalf("err = %q", rcpt.Err)
	}
	if rcpt.GasUsed != 200_000 {
		t.Fatalf("out-of-gas tx used %d of 200000", rcpt.GasUsed)
	}
}

func TestCrossContractCall(t *testing.T) {
	e := newTestEnv(t)
	c1 := e.deployCounter(t, 0)
	c2 := e.deployCounter(t, 100)

	nonce := e.chain.State().Nonce(e.alice.Address())
	args := NewEncoder().Address(c2).Bytes()
	tx := ledger.SignTx(e.alice, c1, 0, nonce, 1_000_000, CallData("callOther", args))
	rcpt := e.run(t, tx)
	if !rcpt.Succeeded() {
		t.Fatalf("cross call failed: %s", rcpt.Err)
	}
	ret, _ := e.rt.View(e.chain.State(), e.alice.Address(), c2, "get", nil)
	if v := NewDecoder(ret).Uint64(); v != 101 {
		t.Fatalf("callee count = %d, want 101", v)
	}
}

func TestCallDepthLimit(t *testing.T) {
	e := newTestEnv(t)
	counter := e.deployCounter(t, 0)
	nonce := e.chain.State().Nonce(e.alice.Address())
	tx := ledger.SignTx(e.alice, counter, 0, nonce, 40_000_000, CallData("recurse", nil))
	rcpt := e.run(t, tx)
	if rcpt.Succeeded() {
		t.Fatal("infinite recursion succeeded")
	}
	if !strings.Contains(rcpt.Err, "depth") {
		t.Fatalf("err = %q", rcpt.Err)
	}
}

func TestContractHoldsAndPaysValue(t *testing.T) {
	e := newTestEnv(t)
	// Deploy payout contract funded with 500.
	nonce := e.chain.State().Nonce(e.alice.Address())
	tx := ledger.SignTx(e.alice, identity.ZeroAddress, 500, nonce, 10_000_000, DeployData("test/payout", nil))
	rcpt := e.run(t, tx)
	if !rcpt.Succeeded() {
		t.Fatalf("deploy: %s", rcpt.Err)
	}
	var addr identity.Address
	copy(addr[:], rcpt.Return)
	if e.chain.State().Balance(addr) != 500 {
		t.Fatalf("contract balance = %d", e.chain.State().Balance(addr))
	}

	// Pay 200 to bob.
	before := e.chain.State().Balance(e.bob.Address())
	nonce = e.chain.State().Nonce(e.alice.Address())
	args := NewEncoder().Address(e.bob.Address()).Uint64(200).Bytes()
	tx = ledger.SignTx(e.alice, addr, 0, nonce, 1_000_000, CallData("payout", args))
	rcpt = e.run(t, tx)
	if !rcpt.Succeeded() {
		t.Fatalf("payout: %s", rcpt.Err)
	}
	if got := e.chain.State().Balance(e.bob.Address()); got != before+200 {
		t.Fatalf("bob balance = %d, want %d", got, before+200)
	}
	if e.chain.State().Balance(addr) != 300 {
		t.Fatalf("contract balance = %d, want 300", e.chain.State().Balance(addr))
	}

	// Overdraft reverts.
	nonce = e.chain.State().Nonce(e.alice.Address())
	args = NewEncoder().Address(e.bob.Address()).Uint64(1_000).Bytes()
	tx = ledger.SignTx(e.alice, addr, 0, nonce, 1_000_000, CallData("payout", args))
	rcpt = e.run(t, tx)
	if rcpt.Succeeded() {
		t.Fatal("overdraft payout succeeded")
	}
	if e.chain.State().Balance(addr) != 300 {
		t.Fatal("failed payout changed contract balance")
	}
}

func TestDeployUnknownCodeFails(t *testing.T) {
	e := newTestEnv(t)
	nonce := e.chain.State().Nonce(e.alice.Address())
	tx := ledger.SignTx(e.alice, identity.ZeroAddress, 0, nonce, 10_000_000, DeployData("no/such", nil))
	rcpt := e.run(t, tx)
	if rcpt.Succeeded() {
		t.Fatal("unknown code deployed")
	}
}

func TestUnknownMethodReverts(t *testing.T) {
	e := newTestEnv(t)
	counter := e.deployCounter(t, 0)
	nonce := e.chain.State().Nonce(e.alice.Address())
	tx := ledger.SignTx(e.alice, counter, 0, nonce, 1_000_000, CallData("nope", nil))
	rcpt := e.run(t, tx)
	if rcpt.Succeeded() {
		t.Fatal("unknown method succeeded")
	}
}

func TestPlainTransferStillWorks(t *testing.T) {
	e := newTestEnv(t)
	nonce := e.chain.State().Nonce(e.alice.Address())
	tx := ledger.SignTx(e.alice, e.bob.Address(), 123, nonce, 50_000, nil)
	rcpt := e.run(t, tx)
	if !rcpt.Succeeded() {
		t.Fatalf("transfer failed: %s", rcpt.Err)
	}
	if e.chain.State().Balance(e.bob.Address()) != 1_000_123 {
		t.Fatal("transfer not applied")
	}
}

func TestContractAddressDeterministic(t *testing.T) {
	a := identity.New("x", crypto.NewDRBGFromUint64(9, "t")).Address()
	if ContractAddress(a, 0) != ContractAddress(a, 0) {
		t.Fatal("not deterministic")
	}
	if ContractAddress(a, 0) == ContractAddress(a, 1) {
		t.Fatal("nonce ignored")
	}
}

func TestRegisterCodeValidation(t *testing.T) {
	rt := NewRuntime()
	if err := rt.RegisterCode("", counterContract{}); err == nil {
		t.Fatal("empty name accepted")
	}
	if err := rt.RegisterCode("a", counterContract{}); err != nil {
		t.Fatal(err)
	}
	if err := rt.RegisterCode("a", counterContract{}); err == nil {
		t.Fatal("duplicate name accepted")
	}
}

func TestViewCannotCallMutatingNested(t *testing.T) {
	e := newTestEnv(t)
	c1 := e.deployCounter(t, 0)
	c2 := e.deployCounter(t, 0)
	// A view on "callOther" must fail: the nested call mutates.
	args := NewEncoder().Address(c2).Bytes()
	if _, err := e.rt.View(e.chain.State(), e.alice.Address(), c1, "callOther", args); !errors.Is(err, ErrRevert) {
		t.Fatalf("want ErrRevert, got %v", err)
	}
}

func TestContextHelpers(t *testing.T) {
	e := newTestEnv(t)
	counter := e.deployCounter(t, 1)
	// Keys listing through a contract: use the runtime's View with a
	// bespoke code that lists keys. Instead exercise helpers directly on
	// a context by calling View on "get" and checking gas movement via
	// the receipt of a mutating call.
	nonce := e.chain.State().Nonce(e.alice.Address())
	tx := ledger.SignTx(e.alice, counter, 0, nonce, 1_000_000, CallData("inc", nil))
	rcpt := e.run(t, tx)
	if !rcpt.Succeeded() {
		t.Fatal(rcpt.Err)
	}
	// Gas must cover intrinsic + at least one sload and one sstore.
	if rcpt.GasUsed < ledger.TxBaseGas+GasSload+GasSstore {
		t.Fatalf("gas %d implausibly low", rcpt.GasUsed)
	}
}

func TestViewOnNonContract(t *testing.T) {
	e := newTestEnv(t)
	if _, err := e.rt.View(e.chain.State(), e.alice.Address(), e.bob.Address(), "get", nil); !errors.Is(err, ErrNotContract) {
		t.Fatalf("want ErrNotContract, got %v", err)
	}
}

func TestViewLeavesStateUntouched(t *testing.T) {
	e := newTestEnv(t)
	counter := e.deployCounter(t, 5)
	rootBefore := e.chain.State().Root()
	e.rt.View(e.chain.State(), e.alice.Address(), counter, "get", nil)
	e.rt.View(e.chain.State(), e.alice.Address(), counter, "inc", nil) // reverts
	if e.chain.State().Root() != rootBefore {
		t.Fatal("view mutated state")
	}
}

func TestDeployWithTruncatedDataFails(t *testing.T) {
	e := newTestEnv(t)
	data := DeployData("test/counter", NewEncoder().Uint64(1).Bytes())
	nonce := e.chain.State().Nonce(e.alice.Address())
	tx := ledger.SignTx(e.alice, identity.ZeroAddress, 0, nonce, 10_000_000, data[:len(data)-2])
	rcpt := e.run(t, tx)
	if rcpt.Succeeded() {
		t.Fatal("truncated deploy data accepted")
	}
	// Nonce still consumed; a fresh deploy works afterwards.
	e.deployCounter(t, 0)
}

func TestCallWithTruncatedDataFails(t *testing.T) {
	e := newTestEnv(t)
	counter := e.deployCounter(t, 0)
	data := CallData("inc", nil)
	nonce := e.chain.State().Nonce(e.alice.Address())
	tx := ledger.SignTx(e.alice, counter, 0, nonce, 1_000_000, data[:len(data)-1])
	rcpt := e.run(t, tx)
	if rcpt.Succeeded() {
		t.Fatal("truncated call data accepted")
	}
}

func TestCallValueMovesWithCall(t *testing.T) {
	e := newTestEnv(t)
	counter := e.deployCounter(t, 0)
	nonce := e.chain.State().Nonce(e.alice.Address())
	tx := ledger.SignTx(e.alice, counter, 250, nonce, 1_000_000, CallData("inc", nil))
	rcpt := e.run(t, tx)
	if !rcpt.Succeeded() {
		t.Fatal(rcpt.Err)
	}
	if e.chain.State().Balance(counter) != 250 {
		t.Fatalf("contract balance = %d", e.chain.State().Balance(counter))
	}
	// A reverting call refunds the value.
	before := e.chain.State().Balance(e.alice.Address())
	nonce = e.chain.State().Nonce(e.alice.Address())
	tx = ledger.SignTx(e.alice, counter, 99, nonce, 1_000_000, CallData("boom", nil))
	rcpt = e.run(t, tx)
	if rcpt.Succeeded() {
		t.Fatal("boom succeeded")
	}
	if e.chain.State().Balance(e.alice.Address()) != before {
		t.Fatal("failed call kept the value")
	}
}
