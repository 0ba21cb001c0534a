package token

import (
	"strings"
	"testing"

	"pds2/internal/contract"
	"pds2/internal/crypto"
	"pds2/internal/identity"
)

// TestERC20SelfTransferConservesSupply is the regression for a minting
// bug found by the property harness (proptest seed 2, shrunk to a
// single op): move() read the recipient balance before debiting the
// sender, so a self-transfer credited the stale pre-debit balance and
// created amount tokens out of thin air.
func TestERC20SelfTransferConservesSupply(t *testing.T) {
	e := newEnv(t)
	tok := e.deploy(t, e.alice, ERC20CodeName, ERC20InitArgs("R", "R", 1_000))

	rcpt := e.mustSend(t, e.alice, tok, ERC20TransferData(e.alice.Address(), 400))
	if got := e.erc20Balance(t, tok, e.alice.Address()); got != 1_000 {
		t.Fatalf("balance after self-transfer = %d, want 1000", got)
	}
	// The Transfer event must still fire — observers rely on it.
	if len(rcpt.Events) != 1 || rcpt.Events[0].Topic != "Transfer" {
		t.Fatalf("expected one Transfer event, got %v", rcpt.Events)
	}

	// Self-transferFrom through an allowance takes the same move() path.
	e.mustSend(t, e.alice, tok, ERC20ApproveData(e.bob.Address(), 500))
	e.mustSend(t, e.bob, tok, ERC20TransferFromData(e.alice.Address(), e.alice.Address(), 300))
	if got := e.erc20Balance(t, tok, e.alice.Address()); got != 1_000 {
		t.Fatalf("balance after self-transferFrom = %d, want 1000", got)
	}

	// An overdrafting self-transfer must still revert.
	rcpt = e.send(t, e.alice, tok, ERC20TransferData(e.alice.Address(), 1_001))
	if rcpt.Succeeded() || !strings.Contains(rcpt.Err, "balance") {
		t.Fatalf("overdraft self-transfer: %v", rcpt.Err)
	}

	ret, err := e.rt.View(e.chain.State(), e.alice.Address(), tok, "totalSupply", nil)
	if err != nil {
		t.Fatal(err)
	}
	if s := contract.NewDecoder(ret).Uint64(); s != 1_000 {
		t.Fatalf("supply drifted to %d", s)
	}
}

// TestERC721SelfTransferStable pins the non-fungible analogue: a
// self-transfer keeps ownership and the per-owner count stable (the
// count is read after the debit write, so it never shared the ERC-20
// bug) and still clears any outstanding approval.
func TestERC721SelfTransferStable(t *testing.T) {
	e := newEnv(t)
	deeds := e.deploy(t, e.alice, ERC721CodeName, ERC721InitArgs("Deeds"))
	id := crypto.HashString("deed-1")
	e.mustSend(t, e.alice, deeds, ERC721MintData(e.bob.Address(), id, []byte("uri://1")))
	e.mustSend(t, e.bob, deeds, ERC721ApproveData(e.carol.Address(), id))

	e.mustSend(t, e.bob, deeds, ERC721TransferFromData(e.bob.Address(), e.bob.Address(), id))

	ret, err := e.rt.View(e.chain.State(), e.bob.Address(), deeds, "ownerOf", ERC721OwnerArgs(id))
	if err != nil {
		t.Fatal(err)
	}
	owner := contract.NewDecoder(ret).Address()
	if owner != e.bob.Address() {
		t.Fatalf("owner changed to %s", owner.Short())
	}
	ret, err = e.rt.View(e.chain.State(), e.bob.Address(), deeds, "balanceOf",
		contract.NewEncoder().Address(e.bob.Address()).Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if cnt := contract.NewDecoder(ret).Uint64(); cnt != 1 {
		t.Fatalf("owner count = %d, want 1", cnt)
	}
	// The transfer must have consumed carol's approval.
	rcpt := e.send(t, e.carol, deeds, ERC721TransferFromData(e.bob.Address(), e.carol.Address(), id))
	if rcpt.Succeeded() {
		t.Fatal("stale approval survived a self-transfer")
	}
}

// TestERC721ErrorPaths is a table of approval/transfer refusals beyond
// the happy-path suite: operations on nonexistent tokens, transfers
// with a mismatched from, approvals by strangers.
func TestERC721ErrorPaths(t *testing.T) {
	missing := crypto.HashString("no-such-deed")
	minted := crypto.HashString("deed-A")
	cases := []struct {
		name    string
		data    func(e *env) (from *identity.Identity, data []byte)
		wantErr string
	}{
		{
			name: "approve nonexistent token",
			data: func(e *env) (*identity.Identity, []byte) {
				return e.bob, ERC721ApproveData(e.carol.Address(), missing)
			},
			wantErr: "does not exist",
		},
		{
			name: "transfer nonexistent token",
			data: func(e *env) (*identity.Identity, []byte) {
				return e.bob, ERC721TransferFromData(e.bob.Address(), e.carol.Address(), missing)
			},
			wantErr: "does not exist",
		},
		{
			name: "transfer with mismatched from",
			data: func(e *env) (*identity.Identity, []byte) {
				// carol claims the deed is hers; it belongs to bob.
				return e.bob, ERC721TransferFromData(e.carol.Address(), e.bob.Address(), minted)
			},
			wantErr: "does not own token",
		},
		{
			name: "approval by a stranger",
			data: func(e *env) (*identity.Identity, []byte) {
				return e.carol, ERC721ApproveData(e.carol.Address(), minted)
			},
			wantErr: "does not own token",
		},
		{
			name: "duplicate mint",
			data: func(e *env) (*identity.Identity, []byte) {
				return e.alice, ERC721MintData(e.carol.Address(), minted, []byte("uri://dup"))
			},
			wantErr: "already exists",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := newEnv(t)
			deeds := e.deploy(t, e.alice, ERC721CodeName, ERC721InitArgs("Deeds"))
			e.mustSend(t, e.alice, deeds, ERC721MintData(e.bob.Address(), minted, []byte("uri://A")))
			from, data := tc.data(e)
			rcpt := e.send(t, from, deeds, data)
			if rcpt.Succeeded() {
				t.Fatalf("call succeeded; want revert containing %q", tc.wantErr)
			}
			if !strings.Contains(rcpt.Err, tc.wantErr) {
				t.Fatalf("revert %q does not contain %q", rcpt.Err, tc.wantErr)
			}
		})
	}
}
