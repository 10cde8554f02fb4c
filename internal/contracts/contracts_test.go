package contracts_test

import (
	"errors"
	"strings"
	"testing"

	"scmove/internal/chain"
	"scmove/internal/contracts"
	"scmove/internal/core"
	"scmove/internal/evm"
	"scmove/internal/hashing"
	"scmove/internal/keys"
	"scmove/internal/state"
	"scmove/internal/trie"
	"scmove/internal/types"
	"scmove/internal/u256"
)

const fund = uint64(1) << 50

// harness drives one or two chains through direct block application (no
// consensus; contract logic is what is under test).
type harness struct {
	t      *testing.T
	chains map[hashing.ChainID]*chain.Chain
	nonces map[hashing.ChainID]map[hashing.Address]uint64
	now    uint64
	users  []*keys.KeyPair
}

func newHarness(t *testing.T, userCount int) *harness {
	t.Helper()
	h := &harness{
		t:      t,
		chains: make(map[hashing.ChainID]*chain.Chain),
		nonces: make(map[hashing.ChainID]map[hashing.Address]uint64),
		now:    1000,
	}
	for i := 0; i < userCount; i++ {
		h.users = append(h.users, keys.Deterministic(uint64(100+i)))
	}
	registry := contracts.NewRegistry()
	cfgs := []chain.Config{
		{
			ChainID: 1, TreeKind: trie.KindMPT, Schedule: evm.EthereumSchedule(),
			BlockGasLimit: 100_000_000, MaxBlockTxs: 500, ConfirmationDepth: 6,
			Natives: registry, PoolLimit: 10_000,
		},
		{
			ChainID: 2, TreeKind: trie.KindIAVL, Schedule: evm.BurrowSchedule(),
			BlockGasLimit: 100_000_000, MaxBlockTxs: 500, ConfirmationDepth: 2,
			LaggingStateRoot: true, Natives: registry, PoolLimit: 10_000,
		},
	}
	params := []core.ChainParams{cfgs[0].Params(), cfgs[1].Params()}
	for _, cfg := range cfgs {
		c, err := chain.New(cfg, core.NewHeaderStore(params...), func(db *state.DB) {
			for _, u := range h.users {
				db.AddBalance(u.Address(), u256.FromUint64(fund))
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		h.chains[cfg.ChainID] = c
		h.nonces[cfg.ChainID] = make(map[hashing.Address]uint64)
	}
	return h
}

// run submits a call transaction and applies a block, returning the receipt.
func (h *harness) run(id hashing.ChainID, kp *keys.KeyPair, kind types.TxKind,
	to hashing.Address, data []byte, value uint64, payload *types.Move2Payload) *types.Receipt {
	h.t.Helper()
	c := h.chains[id]
	tx := &types.Transaction{
		ChainID:  id,
		Nonce:    h.nonces[id][kp.Address()],
		Kind:     kind,
		To:       to,
		Value:    u256.FromUint64(value),
		GasLimit: 50_000_000,
		GasPrice: u256.FromUint64(2),
		Data:     data,
		Move2:    payload,
	}
	if err := tx.Sign(kp); err != nil {
		h.t.Fatal(err)
	}
	h.nonces[id][kp.Address()]++
	if err := c.SubmitTx(tx); err != nil {
		h.t.Fatal(err)
	}
	h.now += 5
	_, receipts := c.ApplyBlock(c.ProposeBatch(), h.now, chain.ProposerAddress(id, 0))
	for _, r := range receipts {
		if r.TxID == tx.ID() {
			return r
		}
	}
	h.t.Fatal("transaction not executed")
	return nil
}

// call is run with TxCall and asserts success.
func (h *harness) call(id hashing.ChainID, kp *keys.KeyPair, to hashing.Address, data []byte, value uint64) *types.Receipt {
	h.t.Helper()
	rec := h.run(id, kp, types.TxCall, to, data, value, nil)
	if !rec.Succeeded() {
		h.t.Fatalf("call failed: %s", rec.Err)
	}
	return rec
}

// callExpectFail is run with TxCall and asserts failure containing msg.
func (h *harness) callExpectFail(id hashing.ChainID, kp *keys.KeyPair, to hashing.Address, data []byte, msg string) {
	h.t.Helper()
	rec := h.run(id, kp, types.TxCall, to, data, 0, nil)
	if rec.Succeeded() {
		h.t.Fatalf("call must fail (want %q)", msg)
	}
	if !strings.Contains(rec.Err, msg) {
		h.t.Fatalf("err = %q, want substring %q", rec.Err, msg)
	}
}

// deploy creates a native contract and returns its address.
func (h *harness) deploy(id hashing.ChainID, kp *keys.KeyPair, name string, args []byte, value uint64) hashing.Address {
	h.t.Helper()
	rec := h.run(id, kp, types.TxCreate, hashing.Address{}, evm.NativeDeployment(name, args), value, nil)
	if !rec.Succeeded() {
		h.t.Fatalf("deploy %s failed: %s", name, rec.Err)
	}
	return rec.Created
}

// view runs a read-only call.
func (h *harness) view(id hashing.ChainID, from hashing.Address, to hashing.Address, data []byte) []byte {
	h.t.Helper()
	ret, err := h.chains[id].StaticCall(from, to, data)
	if err != nil {
		h.t.Fatalf("view: %v", err)
	}
	return ret
}

// moveContract performs the full Move1/proof/Move2 between the two chains
// without consensus timing (headers relayed immediately).
func (h *harness) moveContract(from, to hashing.ChainID, kp *keys.KeyPair, contract hashing.Address) {
	h.t.Helper()
	src, dst := h.chains[from], h.chains[to]
	rec := h.call(from, kp, contract, core.MoveToInput(to), 0)
	_ = rec
	height := src.Head().Height
	payload, err := core.BuildMoveProof(src.StateDB(), contract, height)
	if err != nil {
		h.t.Fatal(err)
	}
	// Mine out the confirmation depth (plus the lagging-root block) and
	// relay all headers.
	depth := src.Config().ConfirmationDepth + 2
	for i := uint64(0); i < depth; i++ {
		h.now += 5
		src.ApplyBlock(nil, h.now, chain.ProposerAddress(from, 0))
	}
	var headers []*types.Header
	for hh := uint64(0); hh <= src.Head().Height; hh++ {
		hdr, _ := src.HeaderAt(hh)
		headers = append(headers, hdr)
	}
	if err := dst.Headers().Update(from, headers, src.Head().Height); err != nil {
		h.t.Fatal(err)
	}
	rec2 := h.run(to, kp, types.TxMove2, hashing.Address{}, nil, 0, payload)
	if !rec2.Succeeded() {
		h.t.Fatalf("move2 failed: %s", rec2.Err)
	}
}

// --- Store ---

func TestStoreLifecycle(t *testing.T) {
	h := newHarness(t, 2)
	alice, bob := h.users[0], h.users[1]
	store := h.deploy(1, alice, contracts.StoreName, contracts.StoreConstructorArgs(alice.Address(), 10), 0)

	// Values are populated.
	v := h.view(1, alice.Address(), store, contracts.EncodeCall("get", contracts.ArgUint(3)))
	if len(v) != 32 || u256.FromBytes(v).IsZero() {
		t.Fatalf("get(3) = %x", v)
	}
	// Owner can set; others cannot.
	var newVal evm.Word
	newVal[31] = 0x55
	h.call(1, alice, store, contracts.EncodeCall("set", contracts.ArgUint(3), contracts.ArgWord(newVal)), 0)
	got := h.view(1, alice.Address(), store, contracts.EncodeCall("get", contracts.ArgUint(3)))
	if got[31] != 0x55 {
		t.Fatalf("set did not stick: %x", got)
	}
	h.callExpectFail(1, bob, store, contracts.EncodeCall("set", contracts.ArgUint(3), contracts.ArgWord(newVal)), "owner")

	// Unknown methods fail.
	h.callExpectFail(1, alice, store, contracts.EncodeCall("frobnicate"), "unknown method")
}

func TestStoreMovesBetweenChains(t *testing.T) {
	h := newHarness(t, 1)
	alice := h.users[0]
	store := h.deploy(1, alice, contracts.StoreName, contracts.StoreConstructorArgs(alice.Address(), 5), 0)
	before := h.view(1, alice.Address(), store, contracts.EncodeCall("get", contracts.ArgUint(2)))

	h.moveContract(1, 2, alice, store)

	// Locked on the source: writes fail, reads still work.
	var val evm.Word
	val[31] = 1
	h.callExpectFail(1, alice, store, contracts.EncodeCall("set", contracts.ArgUint(0), contracts.ArgWord(val)), "locked")
	srcRead := h.view(1, alice.Address(), store, contracts.EncodeCall("get", contracts.ArgUint(2)))
	if string(srcRead) != string(before) {
		t.Fatal("locked contract must remain readable")
	}
	// Live on the target with identical state.
	after := h.view(2, alice.Address(), store, contracts.EncodeCall("get", contracts.ArgUint(2)))
	if string(after) != string(before) {
		t.Fatalf("state mismatch after move: %x vs %x", after, before)
	}
	// Writable on the target by its owner.
	h.call(2, alice, store, contracts.EncodeCall("set", contracts.ArgUint(0), contracts.ArgWord(val)), 0)
}

// TestStoreOnlyOwnerMoves covers the Listing-1 owner guard.
func TestStoreOnlyOwnerMoves(t *testing.T) {
	h := newHarness(t, 2)
	alice, eve := h.users[0], h.users[1]
	store := h.deploy(1, alice, contracts.StoreName, contracts.StoreConstructorArgs(alice.Address(), 1), 0)
	h.callExpectFail(1, eve, store, core.MoveToInput(2), "owner")
}

// --- SCoin / SAccount ---

type tokenFixture struct {
	h     *harness
	token hashing.Address
	alice *keys.KeyPair
	bob   *keys.KeyPair
	accA  hashing.Address
	saltA uint64
	accB  hashing.Address
	saltB uint64
}

func newTokenFixture(t *testing.T) *tokenFixture {
	h := newHarness(t, 3)
	alice, bob := h.users[0], h.users[1]
	token := h.deploy(1, alice, contracts.SCoinName,
		contracts.SCoinConstructorArgs(alice.Address(), u256.FromUint64(1000)), 0)

	newAccount := func(kp *keys.KeyPair) (hashing.Address, uint64) {
		rec := h.call(1, kp, token, contracts.EncodeCall("newAccount"), 0)
		addr, salt, err := contracts.CreatedAccount(onlyOne(t, rec, contracts.TopicCreatedAccount))
		if err != nil {
			t.Fatal(err)
		}
		return addr, salt
	}
	accA, saltA := newAccount(alice)
	accB, saltB := newAccount(bob)
	return &tokenFixture{h: h, token: token, alice: alice, bob: bob,
		accA: accA, saltA: saltA, accB: accB, saltB: saltB}
}

func (f *tokenFixture) balanceOn(id hashing.ChainID, acc hashing.Address) uint64 {
	ret := f.h.view(id, f.alice.Address(), acc, contracts.EncodeCall("balance"))
	return u256.FromBytes(ret).Uint64()
}

func TestSCoinAccountsAndTransfer(t *testing.T) {
	f := newTokenFixture(t)
	h := f.h
	if f.saltA == f.saltB {
		t.Fatal("salts must be unique")
	}
	if got := f.balanceOn(1, f.accA); got != 1000 {
		t.Fatalf("initial balance = %d", got)
	}
	supply := u256.FromBytes(h.view(1, f.alice.Address(), f.token, contracts.EncodeCall("totalSupply")))
	if supply.Uint64() != 2000 {
		t.Fatalf("totalSupply = %s", supply)
	}

	// Alice transfers 250 from her account to Bob's, attested by salt.
	h.call(1, f.alice, f.accA, contracts.EncodeCall("transfer",
		contracts.ArgAddress(f.accB), contracts.ArgUint(f.saltB), contracts.ArgU256(u256.FromUint64(250))), 0)
	if got := f.balanceOn(1, f.accA); got != 750 {
		t.Fatalf("A = %d", got)
	}
	if got := f.balanceOn(1, f.accB); got != 1250 {
		t.Fatalf("B = %d", got)
	}
}

func TestSCoinTransferGuards(t *testing.T) {
	f := newTokenFixture(t)
	h := f.h
	// Only the owner can spend.
	h.callExpectFail(1, f.bob, f.accA, contracts.EncodeCall("transfer",
		contracts.ArgAddress(f.accB), contracts.ArgUint(f.saltB), contracts.ArgU256(u256.FromUint64(1))), "owner")
	// Wrong salt: origin attestation must fail.
	h.callExpectFail(1, f.alice, f.accA, contracts.EncodeCall("transfer",
		contracts.ArgAddress(f.accB), contracts.ArgUint(f.saltB+7), contracts.ArgU256(u256.FromUint64(1))), "origin")
	// Overdraft.
	h.callExpectFail(1, f.alice, f.accA, contracts.EncodeCall("transfer",
		contracts.ArgAddress(f.accB), contracts.ArgUint(f.saltB), contracts.ArgU256(u256.FromUint64(10_000))), "insufficient")
	// Direct debit from a non-sibling caller must fail.
	h.callExpectFail(1, f.bob, f.accB, contracts.EncodeCall("debit",
		contracts.ArgU256(u256.FromUint64(500)), contracts.ArgUint(f.saltA)), "origin")
}

func TestSCoinApproveTransferFrom(t *testing.T) {
	f := newTokenFixture(t)
	h := f.h
	spender := h.users[2]
	// Alice approves the spender for 300 on her account.
	h.call(1, f.alice, f.accA, contracts.EncodeCall("approve",
		contracts.ArgAddress(spender.Address()), contracts.ArgU256(u256.FromUint64(300))), 0)
	got := u256.FromBytes(h.view(1, f.alice.Address(), f.accA,
		contracts.EncodeCall("allowance", contracts.ArgAddress(spender.Address()))))
	if got.Uint64() != 300 {
		t.Fatalf("allowance = %s", got)
	}
	// The spender moves 200 to Bob's account.
	h.call(1, spender, f.accA, contracts.EncodeCall("transferFrom",
		contracts.ArgAddress(f.accB), contracts.ArgUint(f.saltB), contracts.ArgU256(u256.FromUint64(200))), 0)
	if f.balanceOn(1, f.accB) != 1200 {
		t.Fatal("transferFrom must credit B")
	}
	// Exceeding the remaining allowance fails.
	h.callExpectFail(1, spender, f.accA, contracts.EncodeCall("transferFrom",
		contracts.ArgAddress(f.accB), contracts.ArgUint(f.saltB), contracts.ArgU256(u256.FromUint64(200))), "allowance")
}

// TestSCoinCrossChainTransfer is the paper's headline flow (§V-A): both
// accounts move from chain 1 to chain 2 and transact there — the CREATE2
// identifiers survive the move, so the salt attestation still works.
func TestSCoinCrossChainTransfer(t *testing.T) {
	f := newTokenFixture(t)
	h := f.h

	h.moveContract(1, 2, f.alice, f.accA)
	h.moveContract(1, 2, f.bob, f.accB)

	// Same identifiers, same balances, now on chain 2.
	if got := f.balanceOn(2, f.accA); got != 1000 {
		t.Fatalf("A on chain 2 = %d", got)
	}
	// Transfer on chain 2 with the same salts.
	h.call(2, f.alice, f.accA, contracts.EncodeCall("transfer",
		contracts.ArgAddress(f.accB), contracts.ArgUint(f.saltB), contracts.ArgU256(u256.FromUint64(400))), 0)
	if got := f.balanceOn(2, f.accB); got != 1400 {
		t.Fatalf("B on chain 2 = %d", got)
	}
	// The source-chain copies are locked.
	h.callExpectFail(1, f.alice, f.accA, contracts.EncodeCall("transfer",
		contracts.ArgAddress(f.accB), contracts.ArgUint(f.saltB), contracts.ArgU256(u256.FromUint64(1))), "locked")
}

// TestSCoinTransferToUnmovedAccountFails: if the destination account has
// not moved to the same chain, the call reaches an empty account and the
// transfer must abort rather than burn tokens.
func TestSCoinTransferToUnmovedAccountFails(t *testing.T) {
	f := newTokenFixture(t)
	h := f.h
	h.moveContract(1, 2, f.alice, f.accA)
	// accB still lives on chain 1: the debit call on chain 2 finds no code
	// and returns no data, so the transfer fails and A keeps its balance.
	rec := h.run(2, f.alice, types.TxCall, f.accA, contracts.EncodeCall("transfer",
		contracts.ArgAddress(f.accB), contracts.ArgUint(f.saltB), contracts.ArgU256(u256.FromUint64(10))), 0, nil)
	if rec.Succeeded() {
		t.Fatal("transfer to an absent account must fail")
	}
	if got := f.balanceOn(2, f.accA); got != 1000 {
		t.Fatalf("A must keep its tokens, has %d", got)
	}
}

// --- ScalableKitties ---

type kittyFixture struct {
	h        *harness
	registry hashing.Address
	owner    *keys.KeyPair
	breeder  *keys.KeyPair
}

func newKittyFixture(t *testing.T) *kittyFixture {
	h := newHarness(t, 3)
	owner := h.users[0]
	reg := h.deploy(1, owner, contracts.KittyRegistryName,
		contracts.KittyRegistryConstructorArgs(owner.Address()), 0)
	return &kittyFixture{h: h, registry: reg, owner: owner, breeder: h.users[1]}
}

func (f *kittyFixture) promo(kp *keys.KeyPair, genes byte) (hashing.Address, uint64) {
	f.h.t.Helper()
	var g evm.Word
	g[31] = genes
	rec := f.h.call(1, f.owner, f.registry, contracts.EncodeCall("createPromoKitty",
		contracts.ArgWord(g), contracts.ArgAddress(kp.Address())), 0)
	cat, err := contracts.KittyCreated(onlyOne(f.h.t, rec, contracts.TopicKittyCreated))
	if err != nil {
		f.h.t.Fatal(err)
	}
	salt := u256.FromBytes(f.h.view(1, kp.Address(), cat, contracts.EncodeCall("salt"))).Uint64()
	return cat, salt
}

// onlyOne returns rec's logs after checking that they hold exactly one event
// of topic: the contracts emit each decoded event once per call, which is
// what lets the decoders take the first.
func onlyOne(t *testing.T, rec *types.Receipt, topic hashing.Hash) []*evm.Log {
	t.Helper()
	n := 0
	for _, log := range rec.Logs {
		if len(log.Topics) == 1 && log.Topics[0] == topic {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("%d events of topic %s in one call, want 1", n, topic)
	}
	return rec.Logs
}

// TestDecodersReportMissingEvent: logs without the decoded event (here,
// another contract's event with the same data) are ErrNoEvent, not a zero
// value.
func TestDecodersReportMissingEvent(t *testing.T) {
	logs := []*evm.Log{{Topics: []hashing.Hash{contracts.TopicTransfer}, Data: make([]byte, 52)}}
	_, err1 := contracts.KittyCreated(logs)
	_, err2 := contracts.Pregnant(logs)
	_, _, err3 := contracts.CreatedAccount(logs)
	_, err4 := contracts.RelayCreated(logs)
	for i, err := range []error{err1, err2, err3, err4} {
		if !errors.Is(err, contracts.ErrNoEvent) {
			t.Errorf("decoder %d: %v, want %v", i+1, err, contracts.ErrNoEvent)
		}
	}
}

func TestKittiesPromoAndGuards(t *testing.T) {
	f := newKittyFixture(t)
	h := f.h
	cat, _ := f.promo(f.breeder, 1)
	ownerRet := h.view(1, f.breeder.Address(), cat, contracts.EncodeCall("owner"))
	got, err := contracts.AsAddress(ownerRet)
	if err != nil || got != f.breeder.Address() {
		t.Fatalf("owner = %x (%v)", ownerRet, err)
	}
	// Non-owners cannot mint promos.
	var g evm.Word
	h.callExpectFail(1, f.breeder, f.registry, contracts.EncodeCall("createPromoKitty",
		contracts.ArgWord(g), contracts.ArgAddress(f.breeder.Address())), "owner")
}

func TestKittiesBreedAndGiveBirth(t *testing.T) {
	f := newKittyFixture(t)
	h := f.h
	catA, saltA := f.promo(f.breeder, 1)
	catB, saltB := f.promo(f.breeder, 2) // same owner: siring implicitly allowed

	rec := h.call(1, f.breeder, f.registry, contracts.EncodeCall("breed",
		contracts.ArgAddress(catA), contracts.ArgUint(saltA),
		contracts.ArgAddress(catB), contracts.ArgUint(saltB)), 0)
	pregnancy, err := contracts.Pregnant(onlyOne(t, rec, contracts.TopicPregnant))
	if err != nil || pregnancy == 0 {
		t.Fatalf("pregnancy %d (%v)", pregnancy, err)
	}
	rec = h.call(1, f.breeder, f.registry, contracts.EncodeCall("giveBirth", contracts.ArgUint(pregnancy)), 0)
	child, err := contracts.KittyCreated(onlyOne(t, rec, contracts.TopicKittyCreated))
	if err != nil {
		t.Fatal(err)
	}
	// Child lineage points at both parents.
	parents := h.view(1, f.breeder.Address(), child, contracts.EncodeCall("parents"))
	if len(parents) != 40 {
		t.Fatalf("parents = %x", parents)
	}
	pa, _ := contracts.AsAddress(parents[:20])
	pb, _ := contracts.AsAddress(parents[20:])
	if pa != catA || pb != catB {
		t.Fatal("lineage mismatch")
	}
	// Second giveBirth on the same pregnancy fails.
	h.callExpectFail(1, f.breeder, f.registry, contracts.EncodeCall("giveBirth", contracts.ArgUint(pregnancy)), "no pregnancy")
}

func TestKittiesSiringApproval(t *testing.T) {
	f := newKittyFixture(t)
	h := f.h
	other := h.users[2]
	catA, saltA := f.promo(f.breeder, 1)
	catB, saltB := f.promo(other, 2) // different owner

	// Without approval, breeding fails.
	h.callExpectFail(1, f.breeder, f.registry, contracts.EncodeCall("breed",
		contracts.ArgAddress(catA), contracts.ArgUint(saltA),
		contracts.ArgAddress(catB), contracts.ArgUint(saltB)), "siring")
	// B's owner approves A; now it works.
	h.call(1, other, catB, contracts.EncodeCall("approveSiring", contracts.ArgAddress(catA)), 0)
	h.call(1, f.breeder, f.registry, contracts.EncodeCall("breed",
		contracts.ArgAddress(catA), contracts.ArgUint(saltA),
		contracts.ArgAddress(catB), contracts.ArgUint(saltB)), 0)
}

func TestKittiesSiblingsCannotMate(t *testing.T) {
	f := newKittyFixture(t)
	h := f.h
	catA, saltA := f.promo(f.breeder, 1)
	catB, saltB := f.promo(f.breeder, 2)
	// Produce two children of (A, B).
	makeChild := func() (hashing.Address, uint64) {
		rec := h.call(1, f.breeder, f.registry, contracts.EncodeCall("breed",
			contracts.ArgAddress(catA), contracts.ArgUint(saltA),
			contracts.ArgAddress(catB), contracts.ArgUint(saltB)), 0)
		id, err := contracts.Pregnant(onlyOne(t, rec, contracts.TopicPregnant))
		if err != nil {
			t.Fatal(err)
		}
		rec = h.call(1, f.breeder, f.registry, contracts.EncodeCall("giveBirth", contracts.ArgUint(id)), 0)
		child, err := contracts.KittyCreated(onlyOne(t, rec, contracts.TopicKittyCreated))
		if err != nil {
			t.Fatal(err)
		}
		salt := u256.FromBytes(h.view(1, f.breeder.Address(), child, contracts.EncodeCall("salt"))).Uint64()
		return child, salt
	}
	c1, s1 := makeChild()
	c2, s2 := makeChild()
	h.callExpectFail(1, f.breeder, f.registry, contracts.EncodeCall("breed",
		contracts.ArgAddress(c1), contracts.ArgUint(s1),
		contracts.ArgAddress(c2), contracts.ArgUint(s2)), "siblings")
	// Parent-child is also refused.
	h.callExpectFail(1, f.breeder, f.registry, contracts.EncodeCall("breed",
		contracts.ArgAddress(c1), contracts.ArgUint(s1),
		contracts.ArgAddress(catA), contracts.ArgUint(saltA)), "parent")
}

func TestKittyMovesAcrossChains(t *testing.T) {
	f := newKittyFixture(t)
	h := f.h
	cat, _ := f.promo(f.breeder, 7)
	genesBefore := h.view(1, f.breeder.Address(), cat, contracts.EncodeCall("genes"))

	h.moveContract(1, 2, f.breeder, cat)

	genesAfter := h.view(2, f.breeder.Address(), cat, contracts.EncodeCall("genes"))
	if string(genesBefore) != string(genesAfter) {
		t.Fatal("genes must survive the move")
	}
	// The cat can change owners on the new chain.
	h.call(2, f.breeder, cat, contracts.EncodeCall("transferOwner", contracts.ArgAddress(h.users[2].Address())), 0)
}

// --- PeggedToken guards (the full Fig. 3 cycle runs in the relay e2e) ---

func TestPeggedTokenGuards(t *testing.T) {
	h := newHarness(t, 2)
	alice := h.users[0]
	relayAddr := h.deploy(1, alice, contracts.TokenRelayName, nil, 0)

	// create without attached currency fails.
	h.callExpectFail(1, alice, relayAddr, contracts.EncodeCall("create",
		contracts.ArgUint(2), contracts.ArgAddress(alice.Address())), "attached")

	// create with currency spawns a locked pegged token.
	rec := h.call(1, alice, relayAddr, contracts.EncodeCall("create",
		contracts.ArgUint(2), contracts.ArgAddress(alice.Address())), 5000)
	if !rec.Succeeded() {
		t.Fatal(rec.Err)
	}
	// The pegged contract is locked towards chain 2 and holds the 5000.
	db := h.chains[1].StateDB()
	var pegged hashing.Address
	found := false
	// Find it via its location (the only contract locked towards chain 2).
	for i := 0; i < 256 && !found; i++ {
		// The relay returned the address in the receipt's return data — but
		// receipts do not carry return data; recover it deterministically:
		// salt 0, creator relayAddr.
		pegged = hashing.Create2Address(0, relayAddr, [32]byte{}, hashing.Sum(evm.NativeCode(contracts.PeggedTokenName)))
		found = true
	}
	if db.GetLocation(pegged) != 2 {
		t.Fatalf("pegged token not locked: %s", db.GetLocation(pegged))
	}
	if got := db.GetBalance(pegged); !got.Eq(u256.FromUint64(5000)) {
		t.Fatalf("pegged balance = %s", got)
	}
	// Minting on the home chain is refused (reads on a locked contract are
	// allowed, so the guard is reachable and fires before any write).
	h.callExpectFail(1, alice, pegged, contracts.EncodeCall("mint"), "home chain")
}

func TestMovedAtResidencyGuard(t *testing.T) {
	// A registry with residency: a fresh account cannot move twice quickly.
	registry := contracts.NewRegistryWithResidency(3600)
	h := newHarness(t, 1)
	_ = registry
	alice := h.users[0]
	// Build a one-chain harness view with the residency registry: simplest
	// is a direct chain.
	cfg := chain.Config{
		ChainID: 7, TreeKind: trie.KindMPT, Schedule: evm.EthereumSchedule(),
		BlockGasLimit: 100_000_000, MaxBlockTxs: 100, ConfirmationDepth: 6,
		Natives: registry, PoolLimit: 1000,
	}
	c, err := chain.New(cfg, core.NewHeaderStore(), func(db *state.DB) {
		db.AddBalance(alice.Address(), u256.FromUint64(fund))
	})
	if err != nil {
		t.Fatal(err)
	}
	runTx := func(nonce uint64, kind types.TxKind, to hashing.Address, data []byte, now uint64) *types.Receipt {
		tx := &types.Transaction{
			ChainID: 7, Nonce: nonce, Kind: kind, To: to,
			GasLimit: 50_000_000, GasPrice: u256.FromUint64(2), Data: data,
		}
		if err := tx.Sign(alice); err != nil {
			t.Fatal(err)
		}
		if err := c.SubmitTx(tx); err != nil {
			t.Fatal(err)
		}
		_, receipts := c.ApplyBlock(c.ProposeBatch(), now, chain.ProposerAddress(7, 0))
		return receipts[0]
	}
	rec := runTx(0, types.TxCreate, hashing.Address{},
		evm.NativeDeployment(contracts.StoreName, contracts.StoreConstructorArgs(alice.Address(), 1)), 1000)
	if !rec.Succeeded() {
		t.Fatal(rec.Err)
	}
	store := rec.Created
	// Simulate a moveFinish stamp by moving... simpler: the movedAt slot is
	// zero (created, never moved), so now-movedAt = 1000 < 3600: refused.
	rec = runTx(1, types.TxCall, store, core.MoveToInput(2), 1000)
	if rec.Succeeded() || !strings.Contains(rec.Err, "residency") {
		t.Fatalf("expected residency refusal, got %+v", rec)
	}
	// After enough simulated time, the move is allowed.
	rec = runTx(2, types.TxCall, store, core.MoveToInput(2), 5000)
	if !rec.Succeeded() {
		t.Fatalf("move after residency: %s", rec.Err)
	}
}
