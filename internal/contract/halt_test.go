package contract

import (
	"errors"
	"fmt"
	"testing"

	"pds2/internal/identity"
	"pds2/internal/ledger"
)

// proberContract observes how failures cross frame boundaries.
type proberContract struct{}

func (proberContract) Init(ctx *Context, args []byte) error {
	if len(args) > 0 {
		panic("init: x")
	}
	return nil
}

func (proberContract) Call(ctx *Context, method string, args []byte) ([]byte, error) {
	switch method {
	case "probe":
		// (target, method) → (nested error is ErrOutOfGas, its text). The
		// caller carries on after the nested failure.
		in := ctx.Args("bad args", args)
		_, err := ctx.CallContract(in.Address(), in.String(), nil, 0)
		return NewEncoder().Bool(errors.Is(err, ErrOutOfGas)).String(fmt.Sprint(err)).Bytes(), nil
	case "panic":
		panic("x")
	case "set":
		// (key) — writes 1 under the key.
		ctx.Set(ctx.Args("set", args).String(), []byte{1})
		return nil, nil
	case "args":
		// (n) — charges 100 gas, reads n, then charges n gas.
		in := ctx.Args("args", args)
		ctx.UseGas(100)
		ctx.UseGas(in.Uint64())
		return nil, nil
	default:
		return nil, ErrUnknownMethod
	}
}

func (e *testEnv) deployProber(t *testing.T) identity.Address {
	t.Helper()
	if err := e.rt.RegisterCode("test/prober", proberContract{}); err != nil {
		t.Fatal(err)
	}
	nonce := e.chain.State().Nonce(e.alice.Address())
	rcpt := e.run(t, ledger.SignTx(e.alice, identity.ZeroAddress, 0, nonce, 1_000_000, DeployData("test/prober", nil)))
	if !rcpt.Succeeded() {
		t.Fatalf("deploy failed: %s", rcpt.Err)
	}
	var addr identity.Address
	copy(addr[:], rcpt.Return)
	return addr
}

// mustPanic applies tx directly and demands that it panics with want:
// only a halt is recovered at a frame boundary, never a bug.
func mustPanic(t *testing.T, e *testEnv, tx *ledger.Transaction, want string) {
	t.Helper()
	defer func() {
		if got := recover(); got != want {
			t.Fatalf("recovered %v, want panic %q", got, want)
		}
	}()
	e.rt.Apply(e.chain.State(), tx, 1)
}

func TestPlainPanicPropagates(t *testing.T) {
	e := newTestEnv(t)
	prober := e.deployProber(t)
	nonce := e.chain.State().Nonce(e.alice.Address())
	mustPanic(t, e, ledger.SignTx(e.alice, prober, 0, nonce, 1_000_000, CallData("panic", nil)), "x")
	// From a nested frame, through the caller's CallContract.
	args := NewEncoder().Address(prober).String("panic").Bytes()
	mustPanic(t, e, ledger.SignTx(e.alice, prober, 0, nonce, 1_000_000, CallData("probe", args)), "x")
	// From a constructor.
	mustPanic(t, e, ledger.SignTx(e.alice, identity.ZeroAddress, 0, nonce, 1_000_000,
		DeployData("test/prober", []byte{1})), "init: x")
}

func TestNestedOutOfGasReturnsToCaller(t *testing.T) {
	e := newTestEnv(t)
	prober := e.deployProber(t)
	counter := e.deployCounter(t, 0)
	nonce := e.chain.State().Nonce(e.alice.Address())
	args := NewEncoder().Address(counter).String("burn").Bytes()
	rcpt := e.run(t, ledger.SignTx(e.alice, prober, 0, nonce, 300_000, CallData("probe", args)))
	if !rcpt.Succeeded() {
		t.Fatalf("caller did not continue after the nested out-of-gas: %s", rcpt.Err)
	}
	dec := NewDecoder(rcpt.Return)
	isOOG, text := dec.Bool(), dec.String()
	if !isOOG || text != ErrOutOfGas.Error() {
		t.Fatalf("nested error = %q (ErrOutOfGas: %v)", text, isOOG)
	}
	if rcpt.GasUsed != 300_000 {
		t.Fatalf("gas used %d, want the whole 300000", rcpt.GasUsed)
	}
}

func TestOutOfGasReceipt(t *testing.T) {
	e := newTestEnv(t)
	counter := e.deployCounter(t, 0)
	nonce := e.chain.State().Nonce(e.alice.Address())
	rcpt := e.run(t, ledger.SignTx(e.alice, counter, 0, nonce, 200_000, CallData("burn", nil)))
	if rcpt.Status != ledger.StatusFailed || rcpt.Err != ErrOutOfGas.Error() ||
		rcpt.GasUsed != 200_000 || rcpt.Return != nil || rcpt.Events != nil {
		t.Fatalf("receipt = %+v", rcpt)
	}
	if e.chain.State().Nonce(e.alice.Address()) != nonce+1 {
		t.Fatal("failed tx did not consume its nonce")
	}
}

// A failing read of a frame's arguments halts at that read with
// "<prefix>: <decoder error>", keeping the gas charged before it and
// charging nothing after it.
func TestArgsReadHalts(t *testing.T) {
	e := newTestEnv(t)
	prober := e.deployProber(t)
	valid := NewEncoder().Uint64(5_000).Bytes()
	for _, c := range []struct {
		args []byte
		gas  uint64 // after intrinsic gas
		err  string
	}{
		{valid, 5_100, ""},
		{nil, 100, "contract: execution reverted: args: contract: truncated ABI data"},
		{valid[:5], 100, "contract: execution reverted: args: contract: truncated ABI data"},
		{NewEncoder().String("x").Bytes(), 100,
			"contract: execution reverted: args: contract: ABI type mismatch: want tag 0x2, got 0x3 at offset 0"},
	} {
		nonce := e.chain.State().Nonce(e.alice.Address())
		tx := ledger.SignTx(e.alice, prober, 0, nonce, 1_000_000, CallData("args", c.args))
		rcpt := e.run(t, tx)
		if rcpt.Err != c.err || rcpt.GasUsed-tx.IntrinsicGas() != c.gas {
			t.Fatalf("args %x: receipt %q after %d gas, want %q after %d",
				c.args, rcpt.Err, rcpt.GasUsed-tx.IntrinsicGas(), c.err, c.gas)
		}
	}
}

// A key that is not valid UTF-8 halts Set after its gas charge, with
// nothing written.
func TestSetRejectsInvalidUTF8Key(t *testing.T) {
	e := newTestEnv(t)
	prober := e.deployProber(t)
	for _, c := range []struct {
		key string
		err string
	}{
		{"ok/é", ""},
		{"bad/\xff", `contract: execution reverted: state key "bad/\xff" is not valid UTF-8`},
		{"\xc3", `contract: execution reverted: state key "\xc3" is not valid UTF-8`},
	} {
		nonce := e.chain.State().Nonce(e.alice.Address())
		tx := ledger.SignTx(e.alice, prober, 0, nonce, 1_000_000, CallData("set", NewEncoder().String(c.key).Bytes()))
		rcpt := e.run(t, tx)
		if rcpt.Err != c.err || rcpt.GasUsed-tx.IntrinsicGas() != GasSstore {
			t.Fatalf("key %q: receipt %q after %d gas, want %q after %d",
				c.key, rcpt.Err, rcpt.GasUsed-tx.IntrinsicGas(), c.err, GasSstore)
		}
		if stored := len(e.chain.State().GetStorage(prober, c.key)) > 0; stored != (c.err == "") {
			t.Fatalf("key %q: stored %v", c.key, stored)
		}
	}
}
