package token

import (
	"bytes"
	"testing"

	"pds2/internal/contract"
	"pds2/internal/crypto"
	"pds2/internal/identity"
	"pds2/internal/ledger"
)

// env wires a chain with both token contracts registered.
type env struct {
	chain     *ledger.Chain
	rt        *contract.Runtime
	authority *identity.Identity
	alice     *identity.Identity
	bob       *identity.Identity
	carol     *identity.Identity
	ts        uint64
}

func newEnv(t *testing.T) *env {
	t.Helper()
	rt := contract.NewRuntime()
	if err := rt.RegisterCode(ERC20CodeName, ERC20{}); err != nil {
		t.Fatal(err)
	}
	if err := rt.RegisterCode(ERC721CodeName, ERC721{}); err != nil {
		t.Fatal(err)
	}
	authority := identity.New("auth", crypto.NewDRBGFromUint64(100, "token-test"))
	alice := identity.New("alice", crypto.NewDRBGFromUint64(1, "token-test"))
	bob := identity.New("bob", crypto.NewDRBGFromUint64(2, "token-test"))
	carol := identity.New("carol", crypto.NewDRBGFromUint64(3, "token-test"))
	chain, err := ledger.NewChain(ledger.ChainConfig{
		Authorities: []identity.Address{authority.Address()},
		Applier:     rt,
		GenesisAlloc: map[identity.Address]uint64{
			alice.Address(): 1_000_000,
			bob.Address():   1_000_000,
			carol.Address(): 1_000_000,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return &env{chain: chain, rt: rt, authority: authority, alice: alice, bob: bob, carol: carol}
}

func (e *env) send(t *testing.T, from *identity.Identity, to identity.Address, data []byte) *ledger.Receipt {
	t.Helper()
	nonce := e.chain.State().Nonce(from.Address())
	tx := ledger.SignTx(from, to, 0, nonce, 10_000_000, data)
	e.ts++
	if _, err := e.chain.ProposeBlock(e.authority, e.ts, []*ledger.Transaction{tx}); err != nil {
		t.Fatalf("propose: %v", err)
	}
	rcpt, _ := e.chain.Receipt(tx.Hash())
	return rcpt
}

func (e *env) mustSend(t *testing.T, from *identity.Identity, to identity.Address, data []byte) *ledger.Receipt {
	t.Helper()
	rcpt := e.send(t, from, to, data)
	if !rcpt.Succeeded() {
		t.Fatalf("tx failed: %s", rcpt.Err)
	}
	return rcpt
}

func (e *env) deploy(t *testing.T, from *identity.Identity, code string, initArgs []byte) identity.Address {
	t.Helper()
	rcpt := e.mustSend(t, from, identity.ZeroAddress, contract.DeployData(code, initArgs))
	var addr identity.Address
	copy(addr[:], rcpt.Return)
	return addr
}

func (e *env) erc20Balance(t *testing.T, tok, who identity.Address) uint64 {
	t.Helper()
	ret, err := e.rt.View(e.chain.State(), who, tok, "balanceOf", ERC20BalanceArgs(who))
	if err != nil {
		t.Fatalf("balanceOf: %v", err)
	}
	v := contract.NewDecoder(ret).Uint64()
	return v
}

func TestERC20DeployAndMetadata(t *testing.T) {
	e := newEnv(t)
	tok := e.deploy(t, e.alice, ERC20CodeName, ERC20InitArgs("Reward", "RWD", 1_000))

	ret, err := e.rt.View(e.chain.State(), e.bob.Address(), tok, "name", nil)
	if err != nil {
		t.Fatal(err)
	}
	if name := contract.NewDecoder(ret).String(); name != "Reward" {
		t.Fatalf("name = %q", name)
	}
	ret, _ = e.rt.View(e.chain.State(), e.bob.Address(), tok, "totalSupply", nil)
	if s := contract.NewDecoder(ret).Uint64(); s != 1_000 {
		t.Fatalf("supply = %d", s)
	}
	if got := e.erc20Balance(t, tok, e.alice.Address()); got != 1_000 {
		t.Fatalf("deployer balance = %d", got)
	}
}

func TestERC20Transfer(t *testing.T) {
	e := newEnv(t)
	tok := e.deploy(t, e.alice, ERC20CodeName, ERC20InitArgs("R", "R", 1_000))
	rcpt := e.mustSend(t, e.alice, tok, ERC20TransferData(e.bob.Address(), 250))
	if got := e.erc20Balance(t, tok, e.bob.Address()); got != 250 {
		t.Fatalf("bob = %d", got)
	}
	if got := e.erc20Balance(t, tok, e.alice.Address()); got != 750 {
		t.Fatalf("alice = %d", got)
	}
	// Transfer event in the audit log.
	found := false
	for _, ev := range rcpt.Events {
		if ev.Topic == "Transfer" {
			found = true
		}
	}
	if !found {
		t.Fatal("no Transfer event")
	}
}

func TestERC20TransferOverdraft(t *testing.T) {
	e := newEnv(t)
	tok := e.deploy(t, e.alice, ERC20CodeName, ERC20InitArgs("R", "R", 100))
	rcpt := e.send(t, e.alice, tok, ERC20TransferData(e.bob.Address(), 101))
	if rcpt.Succeeded() {
		t.Fatal("overdraft succeeded")
	}
	if got := e.erc20Balance(t, tok, e.alice.Address()); got != 100 {
		t.Fatalf("failed transfer changed balance: %d", got)
	}
}

func TestERC20ApproveTransferFrom(t *testing.T) {
	e := newEnv(t)
	tok := e.deploy(t, e.alice, ERC20CodeName, ERC20InitArgs("R", "R", 1_000))
	e.mustSend(t, e.alice, tok, ERC20ApproveData(e.bob.Address(), 300))

	// Bob moves 200 of alice's tokens to carol.
	e.mustSend(t, e.bob, tok, ERC20TransferFromData(e.alice.Address(), e.carol.Address(), 200))
	if got := e.erc20Balance(t, tok, e.carol.Address()); got != 200 {
		t.Fatalf("carol = %d", got)
	}
	// Remaining allowance is 100: moving 101 fails.
	rcpt := e.send(t, e.bob, tok, ERC20TransferFromData(e.alice.Address(), e.carol.Address(), 101))
	if rcpt.Succeeded() {
		t.Fatal("allowance exceeded")
	}
	// Moving exactly 100 succeeds.
	e.mustSend(t, e.bob, tok, ERC20TransferFromData(e.alice.Address(), e.carol.Address(), 100))
}

func TestERC20MintOnlyMinter(t *testing.T) {
	e := newEnv(t)
	tok := e.deploy(t, e.alice, ERC20CodeName, ERC20InitArgs("R", "R", 0))
	rcpt := e.send(t, e.bob, tok, ERC20MintData(e.bob.Address(), 500))
	if rcpt.Succeeded() {
		t.Fatal("non-minter minted")
	}
	e.mustSend(t, e.alice, tok, ERC20MintData(e.bob.Address(), 500))
	if got := e.erc20Balance(t, tok, e.bob.Address()); got != 500 {
		t.Fatalf("bob = %d", got)
	}
}

func TestERC20Burn(t *testing.T) {
	e := newEnv(t)
	tok := e.deploy(t, e.alice, ERC20CodeName, ERC20InitArgs("R", "R", 1_000))
	e.mustSend(t, e.alice, tok, ERC20BurnData(400))
	if got := e.erc20Balance(t, tok, e.alice.Address()); got != 600 {
		t.Fatalf("alice = %d", got)
	}
	ret, _ := e.rt.View(e.chain.State(), e.alice.Address(), tok, "totalSupply", nil)
	if s := contract.NewDecoder(ret).Uint64(); s != 600 {
		t.Fatalf("supply = %d", s)
	}
	rcpt := e.send(t, e.alice, tok, ERC20BurnData(601))
	if rcpt.Succeeded() {
		t.Fatal("burned more than balance")
	}
}

func TestERC721MintOwnTransfer(t *testing.T) {
	e := newEnv(t)
	nft := e.deploy(t, e.alice, ERC721CodeName, ERC721InitArgs("DataDeeds"))
	dataID := crypto.HashString("dataset-1")

	e.mustSend(t, e.alice, nft, ERC721MintData(e.bob.Address(), dataID, []byte("meta")))

	ret, err := e.rt.View(e.chain.State(), e.alice.Address(), nft, "ownerOf", ERC721OwnerArgs(dataID))
	if err != nil {
		t.Fatal(err)
	}
	owner := contract.NewDecoder(ret).Address()
	if owner != e.bob.Address() {
		t.Fatalf("owner = %s", owner.Short())
	}

	// Bob transfers to carol.
	e.mustSend(t, e.bob, nft, ERC721TransferFromData(e.bob.Address(), e.carol.Address(), dataID))
	ret, _ = e.rt.View(e.chain.State(), e.alice.Address(), nft, "ownerOf", ERC721OwnerArgs(dataID))
	owner = contract.NewDecoder(ret).Address()
	if owner != e.carol.Address() {
		t.Fatalf("owner after transfer = %s", owner.Short())
	}

	// Balances updated.
	ret, _ = e.rt.View(e.chain.State(), e.alice.Address(), nft, "balanceOf",
		contract.NewEncoder().Address(e.carol.Address()).Bytes())
	if cnt := contract.NewDecoder(ret).Uint64(); cnt != 1 {
		t.Fatalf("carol count = %d", cnt)
	}
}

func TestERC721DuplicateMintRejected(t *testing.T) {
	e := newEnv(t)
	nft := e.deploy(t, e.alice, ERC721CodeName, ERC721InitArgs("D"))
	id := crypto.HashString("x")
	e.mustSend(t, e.alice, nft, ERC721MintData(e.bob.Address(), id, nil))
	rcpt := e.send(t, e.alice, nft, ERC721MintData(e.carol.Address(), id, nil))
	if rcpt.Succeeded() {
		t.Fatal("duplicate token minted")
	}
}

func TestERC721UnauthorizedTransferRejected(t *testing.T) {
	e := newEnv(t)
	nft := e.deploy(t, e.alice, ERC721CodeName, ERC721InitArgs("D"))
	id := crypto.HashString("x")
	e.mustSend(t, e.alice, nft, ERC721MintData(e.bob.Address(), id, nil))

	// Carol tries to steal bob's token.
	rcpt := e.send(t, e.carol, nft, ERC721TransferFromData(e.bob.Address(), e.carol.Address(), id))
	if rcpt.Succeeded() {
		t.Fatal("unauthorized transfer succeeded")
	}
}

func TestERC721ApprovalFlow(t *testing.T) {
	e := newEnv(t)
	nft := e.deploy(t, e.alice, ERC721CodeName, ERC721InitArgs("D"))
	id := crypto.HashString("x")
	e.mustSend(t, e.alice, nft, ERC721MintData(e.bob.Address(), id, nil))

	// Bob approves carol for this token; carol moves it.
	e.mustSend(t, e.bob, nft, ERC721ApproveData(e.carol.Address(), id))
	e.mustSend(t, e.carol, nft, ERC721TransferFromData(e.bob.Address(), e.carol.Address(), id))

	// Approval cleared after transfer: carol cannot move it back via the
	// old approval once she transfers it onward to alice... verify the
	// cleared approval directly: bob (old owner) cannot move it.
	rcpt := e.send(t, e.bob, nft, ERC721TransferFromData(e.carol.Address(), e.bob.Address(), id))
	if rcpt.Succeeded() {
		t.Fatal("stale approval honoured")
	}
}

func TestERC721OperatorApproval(t *testing.T) {
	e := newEnv(t)
	nft := e.deploy(t, e.alice, ERC721CodeName, ERC721InitArgs("D"))
	id1, id2 := crypto.HashString("a"), crypto.HashString("b")
	e.mustSend(t, e.alice, nft, ERC721MintData(e.bob.Address(), id1, nil))
	e.mustSend(t, e.alice, nft, ERC721MintData(e.bob.Address(), id2, nil))

	// Blanket operator can move every token.
	e.mustSend(t, e.bob, nft, contract.CallData("setApprovalForAll",
		contract.NewEncoder().Address(e.carol.Address()).Bool(true).Bytes()))
	e.mustSend(t, e.carol, nft, ERC721TransferFromData(e.bob.Address(), e.carol.Address(), id1))

	// Revoked operator cannot.
	e.mustSend(t, e.bob, nft, contract.CallData("setApprovalForAll",
		contract.NewEncoder().Address(e.carol.Address()).Bool(false).Bytes()))
	rcpt := e.send(t, e.carol, nft, ERC721TransferFromData(e.bob.Address(), e.carol.Address(), id2))
	if rcpt.Succeeded() {
		t.Fatal("revoked operator moved token")
	}
}

func TestERC721TokenURI(t *testing.T) {
	e := newEnv(t)
	nft := e.deploy(t, e.alice, ERC721CodeName, ERC721InitArgs("D"))
	id := crypto.HashString("x")
	meta := []byte(`{"kind":"dataset"}`)
	e.mustSend(t, e.alice, nft, ERC721MintData(e.bob.Address(), id, meta))

	ret, err := e.rt.View(e.chain.State(), e.bob.Address(), nft, "tokenURI", ERC721OwnerArgs(id))
	if err != nil {
		t.Fatal(err)
	}
	got := contract.NewDecoder(ret).Blob()
	if !bytes.Equal(got, meta) {
		t.Fatalf("uri = %q", got)
	}
	// Nonexistent token errors.
	if _, err := e.rt.View(e.chain.State(), e.bob.Address(), nft, "tokenURI", ERC721OwnerArgs(crypto.HashString("none"))); err == nil {
		t.Fatal("missing token URI served")
	}
}

func TestERC20MalformedArgsRevert(t *testing.T) {
	e := newEnv(t)
	tok := e.deploy(t, e.alice, ERC20CodeName, ERC20InitArgs("R", "R", 100))
	calls := []string{"transfer", "approve", "allowance", "transferFrom", "mint", "burn", "balanceOf"}
	for _, method := range calls {
		rcpt := e.send(t, e.alice, tok, contract.CallData(method, []byte{0xde, 0xad}))
		if rcpt.Succeeded() {
			t.Errorf("erc20.%s accepted garbage args", method)
		}
	}
	// Unknown method reverts.
	rcpt := e.send(t, e.alice, tok, contract.CallData("nope", nil))
	if rcpt.Succeeded() {
		t.Error("unknown method accepted")
	}
	// Bad constructor args.
	rcpt = e.send(t, e.alice, identity.ZeroAddress, contract.DeployData(ERC20CodeName, []byte{1}))
	if rcpt.Succeeded() {
		t.Error("bad erc20 constructor accepted")
	}
}

func TestERC721MalformedArgsRevert(t *testing.T) {
	e := newEnv(t)
	nft := e.deploy(t, e.alice, ERC721CodeName, ERC721InitArgs("D"))
	calls := []string{"mint", "ownerOf", "balanceOf", "tokenURI", "approve", "setApprovalForAll", "transferFrom", "transferMinter"}
	for _, method := range calls {
		rcpt := e.send(t, e.alice, nft, contract.CallData(method, []byte{0xde, 0xad}))
		if rcpt.Succeeded() {
			t.Errorf("erc721.%s accepted garbage args", method)
		}
	}
	rcpt := e.send(t, e.alice, identity.ZeroAddress, contract.DeployData(ERC721CodeName, []byte{9}))
	if rcpt.Succeeded() {
		t.Error("bad erc721 constructor accepted")
	}
}

func TestERC721TransferMinter(t *testing.T) {
	e := newEnv(t)
	nft := e.deploy(t, e.alice, ERC721CodeName, ERC721InitArgs("D"))
	// Non-minter cannot hand over the role.
	rcpt := e.send(t, e.bob, nft, ERC721TransferMinterData(e.bob.Address()))
	if rcpt.Succeeded() {
		t.Fatal("non-minter transferred the minter role")
	}
	// Minter hands the role to bob; alice can no longer mint, bob can.
	e.mustSend(t, e.alice, nft, ERC721TransferMinterData(e.bob.Address()))
	id := crypto.HashString("deed")
	rcpt = e.send(t, e.alice, nft, ERC721MintData(e.alice.Address(), id, nil))
	if rcpt.Succeeded() {
		t.Fatal("old minter still mints")
	}
	e.mustSend(t, e.bob, nft, ERC721MintData(e.carol.Address(), id, nil))
}

func TestERC20InitRejectsTrailingGarbage(t *testing.T) {
	e := newEnv(t)
	args := append(ERC20InitArgs("R", "R", 1), 0xff)
	rcpt := e.send(t, e.alice, identity.ZeroAddress, contract.DeployData(ERC20CodeName, args))
	if rcpt.Succeeded() {
		t.Fatal("trailing garbage accepted")
	}
}
