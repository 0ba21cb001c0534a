package contract

import (
	"errors"
	"fmt"
	"unicode/utf8"

	"pds2/internal/identity"
	"pds2/internal/ledger"
)

// Gas schedule for contract operations, following the order of magnitude
// of the EVM so that per-lifecycle gas results (experiment E2) are
// comparable with a public-chain deployment.
const (
	GasSload      uint64 = 200   // storage read
	GasSstore     uint64 = 5_000 // storage write
	GasLogBase    uint64 = 375   // event emission
	GasLogPerByte uint64 = 8
	GasCall       uint64 = 700 // cross-contract call
	GasTransfer   uint64 = 9_000
	GasCreate     uint64 = 32_000 // contract deployment
	GasCompute    uint64 = 1      // unit of metered contract computation
	GasVMDeploy   uint64 = 20_000 // policy bytecode deployment (decode + source re-verify)
)

// MaxCallDepth bounds cross-contract call recursion.
const MaxCallDepth = 64

// Execution errors. ErrRevert wraps contract-level failures so callers
// can distinguish them from runtime misuse.
var (
	ErrOutOfGas      = errors.New("contract: out of gas")
	ErrRevert        = errors.New("contract: execution reverted")
	ErrCallDepth     = errors.New("contract: max call depth exceeded")
	ErrUnknownMethod = errors.New("contract: unknown method")
	ErrNotContract   = errors.New("contract: destination is not a contract")
)

// Revertf builds a contract-level revert error; the message lands in the
// transaction receipt.
func Revertf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrRevert, fmt.Sprintf(format, args...))
}

// Context is the execution environment handed to a contract method. It
// scopes all storage access to the contract's own address, meters gas and
// collects emitted events. A Context is valid only for the duration of
// the call it was created for.
//
// Every environment operation except CallContract halts instead of
// returning an error: running out of gas, a mutation in a view call, a
// corrupt slot, a failed transfer or a failed read of the call's
// arguments (Args) stops the contract's frame, and the runtime reverts
// it exactly as if the contract had returned that error. Contract code
// therefore runs straight-line and returns only its own decisions
// (Revertf).
type Context struct {
	rt      *Runtime
	st      *ledger.State
	Self    identity.Address // the executing contract
	Caller  identity.Address // immediate caller (account or contract)
	Origin  identity.Address // externally-owned account that sent the tx
	Value   uint64           // native value attached to this call
	Height  uint64           // block height being executed
	gasLeft *uint64
	events  *[]ledger.Event
	depth   int
	static  bool // true in view calls: all mutations are rejected
}

// halt carries the error of a failed Context operation out of the
// contract frame it stops.
type halt struct{ err error }

// Catch, deferred at a frame boundary, turns a halt into *err and
// re-panics every other value, so a genuine bug still crashes.
func Catch(err *error) {
	if v := recover(); v != nil {
		h, ok := v.(halt)
		if !ok {
			panic(v)
		}
		*err = h.err
	}
}

// Halt stops the contract's frame with err, as a failed Context
// operation does. Contracts use it for stored state they cannot read
// back (a corrupt slot) and call data they cannot decode, never for
// their own decisions, which they return.
func (c *Context) Halt(err error) { panic(halt{err}) }

// charge consumes n units of gas, failing with ErrOutOfGas (and an
// empty budget) when it is exhausted.
func (c *Context) charge(n uint64) error {
	if *c.gasLeft < n {
		*c.gasLeft = 0
		return ErrOutOfGas
	}
	*c.gasLeft -= n
	return nil
}

// UseGas consumes n units of gas and halts with ErrOutOfGas when the
// budget is exhausted.
func (c *Context) UseGas(n uint64) {
	if err := c.charge(n); err != nil {
		c.Halt(err)
	}
}

// mutable halts a view call that attempts the named mutation.
func (c *Context) mutable(what string) {
	if c.static {
		c.Halt(Revertf("%s in view call", what))
	}
}

// Args returns a decoder over a call's arguments whose failing read
// halts the frame with Revertf("<prefix>: <decoder error>") at that
// read, so gas charged and events emitted before it stand as they are.
func (c *Context) Args(prefix string, args []byte) *Decoder {
	d := NewDecoder(args)
	d.halt = func(err error) { c.Halt(Revertf("%s: %v", prefix, err)) }
	return d
}

// GasLeft returns the remaining gas budget.
func (c *Context) GasLeft() uint64 { return *c.gasLeft }

// Get reads a key from the contract's own storage.
func (c *Context) Get(key string) []byte {
	c.UseGas(GasSload)
	return c.st.GetStorage(c.Self, key)
}

// Set writes a key in the contract's own storage. Empty values delete.
// A key that is not valid UTF-8 halts, after the gas charge: snapshots
// carry keys as JSON strings, which cannot hold one.
func (c *Context) Set(key string, value []byte) {
	c.mutable("state write")
	c.UseGas(GasSstore)
	if !utf8.ValidString(key) {
		c.Halt(Revertf("state key %q is not valid UTF-8", key))
	}
	c.st.SetStorage(c.Self, key, value)
}

// GetUint64 reads a uint64 slot; a missing key reads as zero and a
// corrupt one halts.
func (c *Context) GetUint64(key string) uint64 {
	b := c.Get(key)
	if len(b) == 0 {
		return 0
	}
	d := NewDecoder(b)
	d.halt = c.Halt
	return d.Uint64()
}

// SetUint64 writes a uint64 slot. Zero deletes the slot, so unset and
// zero are indistinguishable — the usual convention for balances.
func (c *Context) SetUint64(key string, v uint64) {
	if v == 0 {
		c.Set(key, nil)
		return
	}
	c.Set(key, NewEncoder().Uint64(v).Bytes())
}

// Emit appends an event to the transaction's audit log.
func (c *Context) Emit(topic string, data []byte) {
	c.mutable("event emission")
	c.UseGas(GasLogBase + GasLogPerByte*uint64(len(topic)+len(data)))
	*c.events = append(*c.events, ledger.Event{
		Contract: c.Self,
		Topic:    topic,
		Data:     append([]byte(nil), data...),
	})
}

// BalanceOf returns the native-token balance of any account.
func (c *Context) BalanceOf(addr identity.Address) uint64 {
	c.UseGas(GasSload)
	return c.st.Balance(addr)
}

// Transfer moves native tokens from the contract's own balance.
func (c *Context) Transfer(to identity.Address, amount uint64) {
	c.mutable("transfer")
	c.UseGas(GasTransfer)
	if err := c.st.SubBalance(c.Self, amount); err != nil {
		c.Halt(Revertf("contract balance too low: %v", err))
	}
	if err := c.st.AddBalance(to, amount); err != nil {
		c.Halt(Revertf("credit failed: %v", err))
	}
}

// CallContract invokes a method on another contract, transferring value
// from the current contract. The callee runs against the same journal, so
// an error — returned or halted in the callee's frame — reverts its
// effects and comes back here, while the caller may continue.
func (c *Context) CallContract(to identity.Address, method string, args []byte, value uint64) ([]byte, error) {
	if err := c.charge(GasCall); err != nil {
		return nil, err
	}
	if c.depth+1 > MaxCallDepth {
		return nil, ErrCallDepth
	}
	if c.static {
		return c.rt.callStatic(c.st, c.Self, c.Origin, to, method, args, c.Height, c.gasLeft, c.depth+1)
	}
	return c.rt.call(c.st, c.Self, c.Origin, to, method, args, value, c.Height, c.gasLeft, c.events, c.depth+1)
}

// ContractExists reports whether an address holds deployed code.
func (c *Context) ContractExists(addr identity.Address) bool {
	c.UseGas(GasSload)
	return len(c.st.GetStorage(addr, codeKey)) > 0
}
