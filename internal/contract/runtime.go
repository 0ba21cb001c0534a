package contract

import (
	"encoding/binary"
	"fmt"

	"pds2/internal/crypto"
	"pds2/internal/identity"
	"pds2/internal/ledger"
	"pds2/internal/telemetry"
)

// Runtime instrumentation: call/deploy volume, the revert rate, per-call
// gas and the state-journal depth left by each applied transaction.
var (
	mCalls        = telemetry.C("contract.calls_total")
	mDeploys      = telemetry.C("contract.deploys_total")
	mReverts      = telemetry.C("contract.reverts_total")
	mCallGas      = telemetry.H("contract.call.gas", telemetry.GasBuckets)
	mCallSeconds  = telemetry.H("contract.call.seconds", telemetry.TimeBuckets)
	mJournalDepth = telemetry.H("contract.journal.depth", telemetry.CountBuckets)
)

// codeKey is the reserved storage slot holding a contract's code name.
const codeKey = "__code"

// Contract is a deployed program. Implementations must be stateless Go
// values: all persistent data lives in the Context's storage, so the same
// instance can serve every deployment of its code.
type Contract interface {
	// Init runs once at deployment with the constructor arguments.
	Init(ctx *Context, args []byte) error

	// Call executes a method invocation and returns its ABI-encoded
	// result. Returning an error reverts all effects of the call.
	Call(ctx *Context, method string, args []byte) ([]byte, error)
}

// Runtime dispatches deploy and call transactions to registered contract
// code. It implements ledger.TxApplier, wrapping plain transfers for
// non-contract destinations.
type Runtime struct {
	codes map[string]Contract
}

// NewRuntime returns a runtime with an empty code registry.
func NewRuntime() *Runtime {
	return &Runtime{codes: make(map[string]Contract)}
}

// RegisterCode makes a contract implementation deployable under the given
// code name. Registration is not a deployment; it corresponds to the
// bytecode being known to the network.
func (r *Runtime) RegisterCode(name string, c Contract) error {
	if name == "" {
		return fmt.Errorf("contract: empty code name")
	}
	if _, dup := r.codes[name]; dup {
		return fmt.Errorf("contract: code %q already registered", name)
	}
	r.codes[name] = c
	return nil
}

// ContractAddress computes the deterministic deployment address for a
// deployer/nonce pair, mirroring Ethereum's CREATE rule.
func ContractAddress(deployer identity.Address, nonce uint64) identity.Address {
	var nb [8]byte
	binary.BigEndian.PutUint64(nb[:], nonce)
	d := crypto.HashConcat([]byte("pds2/create"), deployer[:], nb[:])
	var a identity.Address
	copy(a[:], d[:identity.AddressSize])
	return a
}

// DeployData encodes the transaction payload for a deployment.
func DeployData(codeName string, initArgs []byte) []byte {
	return NewEncoder().String(codeName).Blob(initArgs).Bytes()
}

// CallData encodes the transaction payload for a method call.
func CallData(method string, args []byte) []byte {
	return NewEncoder().String(method).Blob(args).Bytes()
}

// Apply implements ledger.TxApplier: it routes contract creations and
// calls, and falls back to a plain transfer for ordinary destinations.
func (r *Runtime) Apply(st *ledger.State, tx *ledger.Transaction, height uint64) (*ledger.Receipt, error) {
	isCall := !tx.IsContractCreation() && len(st.GetStorage(tx.To, codeKey)) > 0
	if !tx.IsContractCreation() && !isCall {
		return ledger.TransferApplier{}.Apply(st, tx, height)
	}

	if tx.IsContractCreation() {
		mDeploys.Inc()
	} else {
		mCalls.Inc()
	}
	timer := mCallSeconds.Time()
	rcpt := &ledger.Receipt{TxHash: tx.Hash(), Height: height}
	gasLeft := tx.GasLimit - tx.IntrinsicGas()
	var events []ledger.Event

	snap := st.Snapshot()
	nonce := st.Nonce(tx.From)
	st.BumpNonce(tx.From)

	fail := func(err error) (*ledger.Receipt, error) {
		st.RevertTo(snap)
		st.BumpNonce(tx.From) // failed txs still consume their nonce
		rcpt.Status = ledger.StatusFailed
		rcpt.Err = err.Error()
		rcpt.GasUsed = tx.GasLimit - gasLeft
		mReverts.Inc()
		mCallGas.Observe(float64(rcpt.GasUsed))
		mJournalDepth.Observe(float64(st.Snapshot()))
		timer.Stop()
		return rcpt, nil
	}

	if tx.IsContractCreation() {
		dec := NewDecoder(tx.Data)
		codeName, initArgs := dec.String(), dec.Blob()
		if err := dec.Err(); err != nil {
			return fail(fmt.Errorf("contract: bad deploy data: %w", err))
		}
		code, ok := r.codes[codeName]
		if !ok {
			return fail(fmt.Errorf("contract: unknown code %q", codeName))
		}
		if gasLeft < GasCreate {
			return fail(ErrOutOfGas)
		}
		gasLeft -= GasCreate

		addr := ContractAddress(tx.From, nonce)
		if len(st.GetStorage(addr, codeKey)) > 0 {
			return fail(fmt.Errorf("contract: address %s already deployed", addr.Short()))
		}
		if err := st.SubBalance(tx.From, tx.Value); err != nil {
			return fail(err)
		}
		if err := st.AddBalance(addr, tx.Value); err != nil {
			return fail(err)
		}
		st.SetStorage(addr, codeKey, []byte(codeName))

		ctx := &Context{
			rt: r, st: st,
			Self: addr, Caller: tx.From, Origin: tx.From,
			Value: tx.Value, Height: height,
			gasLeft: &gasLeft, events: &events,
		}
		if _, err := frame(func() ([]byte, error) { return nil, code.Init(ctx, initArgs) }); err != nil {
			return fail(err)
		}
		rcpt.Return = addr[:]
	} else {
		dec := NewDecoder(tx.Data)
		method, args := dec.String(), dec.Blob()
		if err := dec.Err(); err != nil {
			return fail(fmt.Errorf("contract: bad call data: %w", err))
		}
		if err := st.SubBalance(tx.From, tx.Value); err != nil {
			return fail(err)
		}
		if err := st.AddBalance(tx.To, tx.Value); err != nil {
			return fail(err)
		}
		ret, err := r.call(st, tx.From, tx.From, tx.To, method, args, 0, height, &gasLeft, &events, 0)
		if err != nil {
			return fail(err)
		}
		rcpt.Return = ret
	}

	rcpt.Status = ledger.StatusOK
	rcpt.GasUsed = tx.GasLimit - gasLeft
	rcpt.Events = events
	mCallGas.Observe(float64(rcpt.GasUsed))
	mJournalDepth.Observe(float64(st.Snapshot()))
	timer.Stop()
	return rcpt, nil
}

// call runs a (possibly nested) contract method. value moves from caller
// to callee before execution. On error, returned or halted, all callee
// effects are reverted.
func (r *Runtime) call(st *ledger.State, caller, origin, to identity.Address, method string, args []byte, value uint64, height uint64, gasLeft *uint64, events *[]ledger.Event, depth int) ([]byte, error) {
	code, err := r.codeAt(st, to)
	if err != nil {
		return nil, err
	}
	snap := st.Snapshot()
	eventsLen := len(*events)
	if value > 0 {
		if err := st.SubBalance(caller, value); err != nil {
			return nil, Revertf("call value: %v", err)
		}
		if err := st.AddBalance(to, value); err != nil {
			return nil, Revertf("call value: %v", err)
		}
	}
	ctx := &Context{
		rt: r, st: st,
		Self: to, Caller: caller, Origin: origin,
		Value: value, Height: height,
		gasLeft: gasLeft, events: events, depth: depth,
	}
	ret, err := frame(func() ([]byte, error) { return code.Call(ctx, method, args) })
	if err != nil {
		st.RevertTo(snap)
		*events = (*events)[:eventsLen]
		return nil, err
	}
	return ret, nil
}

// callStatic runs a method with all mutations disabled.
func (r *Runtime) callStatic(st *ledger.State, caller, origin, to identity.Address, method string, args []byte, height uint64, gasLeft *uint64, depth int) ([]byte, error) {
	code, err := r.codeAt(st, to)
	if err != nil {
		return nil, err
	}
	var events []ledger.Event
	ctx := &Context{
		rt: r, st: st,
		Self: to, Caller: caller, Origin: origin,
		Height:  height,
		gasLeft: gasLeft, events: &events, depth: depth,
		static: true,
	}
	return frame(func() ([]byte, error) { return code.Call(ctx, method, args) })
}

// frame runs contract code for one call frame. A Context operation that
// fails inside it halts the frame, and frame returns the halt's error
// exactly as if the code had returned it.
func frame(run func() ([]byte, error)) (ret []byte, err error) {
	defer Catch(&err)
	return run()
}

func (r *Runtime) codeAt(st *ledger.State, addr identity.Address) (Contract, error) {
	name := st.GetStorage(addr, codeKey)
	if len(name) == 0 {
		return nil, fmt.Errorf("%w: %s", ErrNotContract, addr.Short())
	}
	code, ok := r.codes[string(name)]
	if !ok {
		return nil, fmt.Errorf("contract: code %q not registered on this node", name)
	}
	return code, nil
}

// ViewGasLimit is the gas allowance for read-only view calls from
// off-chain clients.
const ViewGasLimit uint64 = 50_000_000

// View executes a read-only method against the current state without a
// transaction. Any state the method tries to write causes a revert; the
// state is always left untouched.
func (r *Runtime) View(st *ledger.State, caller, to identity.Address, method string, args []byte) ([]byte, error) {
	gasLeft := ViewGasLimit
	snap := st.Snapshot()
	defer st.RevertTo(snap)
	return r.callStatic(st, caller, caller, to, method, args, 0, &gasLeft, 0)
}
