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
		dec := NewDecoder(args)
		to, err := dec.Address()
		if err != nil {
			return nil, Revertf("bad args: %v", err)
		}
		m, err := dec.String()
		if err != nil {
			return nil, Revertf("bad args: %v", err)
		}
		_, err = ctx.CallContract(to, m, nil, 0)
		return NewEncoder().Bool(errors.Is(err, ErrOutOfGas)).String(fmt.Sprint(err)).Bytes(), nil
	case "panic":
		panic("x")
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
	isOOG, _ := dec.Bool()
	text, _ := dec.String()
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
