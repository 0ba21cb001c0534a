package token

import (
	"fmt"

	"pds2/internal/contract"
	"pds2/internal/crypto"
	"pds2/internal/identity"
)

// ERC721CodeName is the registry name of the non-fungible deed contract.
const ERC721CodeName = "pds2/erc721"

// ERC721 is the non-fungible deed contract. In PDS² an NFT models an
// "indivisible, unique asset" (§III-A): token IDs are content digests, so
// the deed for a dataset or a workload's code is its hash, which makes
// ownership claims verifiable against the content itself. Storage layout:
//
//	name                — collection name
//	minter              — address allowed to mint (the deployer)
//	owner/<id>          — token owner
//	cnt/<addr>          — per-owner token count
//	approved/<id>       — single-token approval
//	operator/<o>/<op>   — blanket operator approval
//	uri/<id>            — token metadata (free-form bytes)
type ERC721 struct{}

// Init expects (name string).
func (ERC721) Init(ctx *contract.Context, args []byte) error {
	in := ctx.Args("erc721 init", args)
	name := in.String()
	in.Done()
	ctx.Set("name", []byte(name))
	ctx.Set("minter", ctx.Caller[:])
	return nil
}

func ownerKey(id crypto.Digest) string    { return "owner/" + id.Hex() }
func countKey(a identity.Address) string  { return "cnt/" + a.Hex() }
func approvedKey(id crypto.Digest) string { return "approved/" + id.Hex() }
func operatorKey(owner, op identity.Address) string {
	return "operator/" + owner.Hex() + "/" + op.Hex()
}
func uriKey(id crypto.Digest) string { return "uri/" + id.Hex() }

// Call dispatches the ERC-721 method set.
func (e ERC721) Call(ctx *contract.Context, method string, args []byte) ([]byte, error) {
	in := ctx.Args(method, args)
	switch method {
	case "name":
		return contract.NewEncoder().String(string(ctx.Get("name"))).Bytes(), nil

	case "mint":
		to, id, uri := in.Address(), in.Digest(), in.Blob()
		if string(ctx.Get("minter")) != string(ctx.Caller[:]) {
			return nil, contract.Revertf("mint: caller is not the minter")
		}
		if len(ctx.Get(ownerKey(id))) > 0 {
			return nil, contract.Revertf("mint: token %s already exists", id.Short())
		}
		ctx.Set(ownerKey(id), to[:])
		if len(uri) > 0 {
			ctx.Set(uriKey(id), uri)
		}
		ctx.SetUint64(countKey(to), ctx.GetUint64(countKey(to))+1)
		ctx.Emit("TransferNFT", contract.NewEncoder().
			Address(identity.ZeroAddress).Address(to).Digest(id).Bytes())
		return nil, nil

	case "transferMinter":
		// (newMinter) — hand the mint capability to another account or
		// contract; used to let the platform registry mint data deeds.
		newMinter := in.Address()
		if string(ctx.Get("minter")) != string(ctx.Caller[:]) {
			return nil, contract.Revertf("transferMinter: caller is not the minter")
		}
		ctx.Set("minter", newMinter[:])
		return nil, nil

	case "ownerOf":
		owner, err := e.ownerOf(ctx, in.Digest())
		if err != nil {
			return nil, err
		}
		return contract.NewEncoder().Address(owner).Bytes(), nil

	case "balanceOf":
		return contract.NewEncoder().Uint64(ctx.GetUint64(countKey(in.Address()))).Bytes(), nil

	case "tokenURI":
		id := in.Digest()
		if _, err := e.ownerOf(ctx, id); err != nil {
			return nil, err
		}
		return contract.NewEncoder().Blob(ctx.Get(uriKey(id))).Bytes(), nil

	case "approve":
		spender, id := in.Address(), in.Digest()
		owner, err := e.ownerOf(ctx, id)
		if err != nil {
			return nil, err
		}
		if owner != ctx.Caller {
			return nil, contract.Revertf("approve: caller does not own token")
		}
		ctx.Set(approvedKey(id), spender[:])
		return nil, nil

	case "setApprovalForAll":
		op := in.Address()
		var v []byte
		if in.Bool() {
			v = []byte{1}
		}
		ctx.Set(operatorKey(ctx.Caller, op), v)
		return nil, nil

	case "transferFrom":
		from, to, id := in.Address(), in.Address(), in.Digest()
		owner, err := e.ownerOf(ctx, id)
		if err != nil {
			return nil, err
		}
		if owner != from {
			return nil, contract.Revertf("transferFrom: %s does not own token", from.Short())
		}
		if !e.authorized(ctx, owner, id) {
			return nil, contract.Revertf("transferFrom: caller not authorized")
		}
		ctx.Set(ownerKey(id), to[:])
		ctx.Set(approvedKey(id), nil)
		ctx.SetUint64(countKey(from), ctx.GetUint64(countKey(from))-1)
		ctx.SetUint64(countKey(to), ctx.GetUint64(countKey(to))+1)
		ctx.Emit("TransferNFT", contract.NewEncoder().
			Address(from).Address(to).Digest(id).Bytes())
		return nil, nil

	default:
		return nil, fmt.Errorf("%w: erc721.%s", contract.ErrUnknownMethod, method)
	}
}

func (ERC721) ownerOf(ctx *contract.Context, id crypto.Digest) (identity.Address, error) {
	raw := ctx.Get(ownerKey(id))
	if len(raw) != identity.AddressSize {
		return identity.ZeroAddress, contract.Revertf("erc721: token %s does not exist", id.Short())
	}
	var a identity.Address
	copy(a[:], raw)
	return a, nil
}

// authorized reports whether the caller may move the token: owner,
// per-token approvee or blanket operator.
func (ERC721) authorized(ctx *contract.Context, owner identity.Address, id crypto.Digest) bool {
	if ctx.Caller == owner {
		return true
	}
	if approved := ctx.Get(approvedKey(id)); len(approved) == identity.AddressSize && string(approved) == string(ctx.Caller[:]) {
		return true
	}
	return len(ctx.Get(operatorKey(owner, ctx.Caller))) > 0
}

// Client-side call-data builders.

// ERC721InitArgs encodes constructor arguments.
func ERC721InitArgs(name string) []byte {
	return contract.NewEncoder().String(name).Bytes()
}

// ERC721MintData builds call data for mint.
func ERC721MintData(to identity.Address, id crypto.Digest, uri []byte) []byte {
	return contract.CallData("mint", contract.NewEncoder().Address(to).Digest(id).Blob(uri).Bytes())
}

// ERC721TransferFromData builds call data for transferFrom.
func ERC721TransferFromData(from, to identity.Address, id crypto.Digest) []byte {
	return contract.CallData("transferFrom", contract.NewEncoder().Address(from).Address(to).Digest(id).Bytes())
}

// ERC721TransferMinterData builds call data for transferMinter.
func ERC721TransferMinterData(newMinter identity.Address) []byte {
	return contract.CallData("transferMinter", contract.NewEncoder().Address(newMinter).Bytes())
}

// ERC721ApproveData builds call data for approve.
func ERC721ApproveData(spender identity.Address, id crypto.Digest) []byte {
	return contract.CallData("approve", contract.NewEncoder().Address(spender).Digest(id).Bytes())
}

// ERC721OwnerArgs encodes view arguments for ownerOf.
func ERC721OwnerArgs(id crypto.Digest) []byte {
	return contract.NewEncoder().Digest(id).Bytes()
}
