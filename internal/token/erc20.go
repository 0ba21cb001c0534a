// Package token implements the two Ethereum token standards the paper
// assigns to PDS² asset management (§III-A): ERC-20 fungible tokens for
// rewards ("divisible, non-unique assets, such as currency") and ERC-721
// non-fungible deeds for datasets and workload code ("indivisible, unique
// assets").
//
// Both are contracts for the internal/contract runtime; the package also
// provides client-side helpers that build the call data for every method.
package token

import (
	"fmt"

	"pds2/internal/contract"
	"pds2/internal/identity"
)

// ERC20CodeName is the registry name under which the fungible token
// contract is deployed.
const ERC20CodeName = "pds2/erc20"

// ERC20 is the fungible reward-token contract. Storage layout:
//
//	name, symbol      — immutable metadata
//	minter            — address allowed to mint (the deployer)
//	supply            — total supply
//	bal/<addr>        — balances
//	allow/<o>/<s>     — allowances
type ERC20 struct{}

// Init expects (name string, symbol string, initialSupply uint64); the
// initial supply is credited to the deployer, who also becomes minter.
func (ERC20) Init(ctx *contract.Context, args []byte) error {
	in := ctx.Args("erc20 init", args)
	name, symbol, supply := in.String(), in.String(), in.Uint64()
	in.Done()
	ctx.Set("name", []byte(name))
	ctx.Set("symbol", []byte(symbol))
	ctx.Set("minter", ctx.Caller[:])
	ctx.SetUint64("supply", supply)
	if supply > 0 {
		ctx.SetUint64(balKey(ctx.Caller), supply)
		emitTransfer(ctx, identity.ZeroAddress, ctx.Caller, supply)
	}
	return nil
}

func balKey(a identity.Address) string { return "bal/" + a.Hex() }

func allowKey(owner, spender identity.Address) string {
	return "allow/" + owner.Hex() + "/" + spender.Hex()
}

func emitTransfer(ctx *contract.Context, from, to identity.Address, amount uint64) {
	ctx.Emit("Transfer", contract.NewEncoder().
		Address(from).Address(to).Uint64(amount).Bytes())
}

// Call dispatches the ERC-20 method set.
func (e ERC20) Call(ctx *contract.Context, method string, args []byte) ([]byte, error) {
	in := ctx.Args(method, args)
	switch method {
	case "balanceOf":
		return contract.NewEncoder().Uint64(ctx.GetUint64(balKey(in.Address()))).Bytes(), nil

	case "totalSupply":
		return contract.NewEncoder().Uint64(ctx.GetUint64("supply")).Bytes(), nil

	case "name", "symbol":
		return contract.NewEncoder().String(string(ctx.Get(method))).Bytes(), nil

	case "transfer":
		to, amount := in.Address(), in.Uint64()
		return nil, e.move(ctx, ctx.Caller, to, amount)

	case "approve":
		spender, amount := in.Address(), in.Uint64()
		ctx.SetUint64(allowKey(ctx.Caller, spender), amount)
		ctx.Emit("Approval", contract.NewEncoder().
			Address(ctx.Caller).Address(spender).Uint64(amount).Bytes())
		return nil, nil

	case "allowance":
		owner, spender := in.Address(), in.Address()
		return contract.NewEncoder().Uint64(ctx.GetUint64(allowKey(owner, spender))).Bytes(), nil

	case "transferFrom":
		from, to, amount := in.Address(), in.Address(), in.Uint64()
		allowance := ctx.GetUint64(allowKey(from, ctx.Caller))
		if allowance < amount {
			return nil, contract.Revertf("allowance %d < amount %d", allowance, amount)
		}
		ctx.SetUint64(allowKey(from, ctx.Caller), allowance-amount)
		return nil, e.move(ctx, from, to, amount)

	case "mint":
		to, amount := in.Address(), in.Uint64()
		if string(ctx.Get("minter")) != string(ctx.Caller[:]) {
			return nil, contract.Revertf("mint: caller is not the minter")
		}
		supply := ctx.GetUint64("supply")
		if supply+amount < supply {
			return nil, contract.Revertf("mint: supply overflow")
		}
		ctx.SetUint64("supply", supply+amount)
		ctx.SetUint64(balKey(to), ctx.GetUint64(balKey(to))+amount)
		emitTransfer(ctx, identity.ZeroAddress, to, amount)
		return nil, nil

	case "burn":
		amount := in.Uint64()
		bal := ctx.GetUint64(balKey(ctx.Caller))
		if bal < amount {
			return nil, contract.Revertf("burn: balance %d < amount %d", bal, amount)
		}
		ctx.SetUint64(balKey(ctx.Caller), bal-amount)
		ctx.SetUint64("supply", ctx.GetUint64("supply")-amount)
		emitTransfer(ctx, ctx.Caller, identity.ZeroAddress, amount)
		return nil, nil

	default:
		return nil, fmt.Errorf("%w: erc20.%s", contract.ErrUnknownMethod, method)
	}
}

// move transfers tokens between balances with overdraft and overflow
// checks, emitting the Transfer event.
func (ERC20) move(ctx *contract.Context, from, to identity.Address, amount uint64) error {
	fromBal := ctx.GetUint64(balKey(from))
	if fromBal < amount {
		return contract.Revertf("erc20: balance %d < amount %d", fromBal, amount)
	}
	if from == to {
		// A self-transfer must be a balance no-op. Debiting and crediting
		// through separate reads would credit the stale pre-debit balance
		// and mint `amount` out of thin air.
		emitTransfer(ctx, from, to, amount)
		return nil
	}
	toBal := ctx.GetUint64(balKey(to))
	if toBal+amount < toBal {
		return contract.Revertf("erc20: balance overflow")
	}
	ctx.SetUint64(balKey(from), fromBal-amount)
	ctx.SetUint64(balKey(to), toBal+amount)
	emitTransfer(ctx, from, to, amount)
	return nil
}

// Client-side call-data builders.

// ERC20InitArgs encodes constructor arguments.
func ERC20InitArgs(name, symbol string, supply uint64) []byte {
	return contract.NewEncoder().String(name).String(symbol).Uint64(supply).Bytes()
}

// ERC20TransferData builds call data for transfer.
func ERC20TransferData(to identity.Address, amount uint64) []byte {
	return contract.CallData("transfer", contract.NewEncoder().Address(to).Uint64(amount).Bytes())
}

// ERC20ApproveData builds call data for approve.
func ERC20ApproveData(spender identity.Address, amount uint64) []byte {
	return contract.CallData("approve", contract.NewEncoder().Address(spender).Uint64(amount).Bytes())
}

// ERC20TransferFromData builds call data for transferFrom.
func ERC20TransferFromData(from, to identity.Address, amount uint64) []byte {
	return contract.CallData("transferFrom", contract.NewEncoder().Address(from).Address(to).Uint64(amount).Bytes())
}

// ERC20MintData builds call data for mint.
func ERC20MintData(to identity.Address, amount uint64) []byte {
	return contract.CallData("mint", contract.NewEncoder().Address(to).Uint64(amount).Bytes())
}

// ERC20BurnData builds call data for burn.
func ERC20BurnData(amount uint64) []byte {
	return contract.CallData("burn", contract.NewEncoder().Uint64(amount).Bytes())
}

// ERC20BalanceArgs encodes view arguments for balanceOf.
func ERC20BalanceArgs(addr identity.Address) []byte {
	return contract.NewEncoder().Address(addr).Bytes()
}
