package contracts_test

import (
	"testing"

	"scmove/internal/contracts"
	"scmove/internal/core"
	"scmove/internal/hashing"
)

func setupSwap(t *testing.T) (h *harness, swap, catA, catB hashing.Address) {
	t.Helper()
	h = newHarness(t, 3)
	owner := h.users[0]
	registry := h.deploy(1, owner, contracts.KittyRegistryName,
		contracts.KittyRegistryConstructorArgs(owner.Address()), 0)
	swap = h.deploy(1, owner, contracts.SwapName, nil, 0)

	mint := func(genes byte, to hashing.Address) hashing.Address {
		var g [32]byte
		g[31] = genes
		rec := h.call(1, owner, registry, contracts.EncodeCall("createPromoKitty",
			contracts.ArgWord(g), contracts.ArgAddress(to)), 0)
		cat, err := contracts.KittyCreated(onlyOne(t, rec, contracts.TopicKittyCreated))
		if err != nil {
			t.Fatal(err)
		}
		return cat
	}
	catA = mint(1, h.users[1].Address()) // alice's cat
	catB = mint(2, h.users[2].Address()) // bob's cat
	return h, swap, catA, catB
}

func ownerOf(t *testing.T, h *harness, cat hashing.Address) hashing.Address {
	t.Helper()
	ret := h.view(1, hashing.Address{}, cat, contracts.EncodeCall("owner"))
	addr, err := contracts.AsAddress(ret)
	if err != nil {
		t.Fatal(err)
	}
	return addr
}

func TestSwapHappyPath(t *testing.T) {
	h, swap, catA, catB := setupSwap(t)
	alice, bob := h.users[1], h.users[2]

	// Alice escrows her cat and proposes the exchange for Bob's cat.
	h.call(1, alice, catA, contracts.EncodeCall("transferOwner", contracts.ArgAddress(swap)), 0)
	rec := h.call(1, alice, swap, contracts.EncodeCall("propose",
		contracts.ArgAddress(catA), contracts.ArgAddress(catB), contracts.ArgAddress(bob.Address())), 0)
	_ = rec

	// Bob escrows his cat and accepts swap #1: the exchange is one
	// transaction, atomic by construction (§IX).
	h.call(1, bob, catB, contracts.EncodeCall("transferOwner", contracts.ArgAddress(swap)), 0)
	h.call(1, bob, swap, contracts.EncodeCall("accept", contracts.ArgUint(1)), 0)

	if got := ownerOf(t, h, catA); got != bob.Address() {
		t.Fatalf("catA owner = %s, want bob", got)
	}
	if got := ownerOf(t, h, catB); got != alice.Address() {
		t.Fatalf("catB owner = %s, want alice", got)
	}
	// The swap is consumed.
	h.callExpectFail(1, bob, swap, contracts.EncodeCall("accept", contracts.ArgUint(1)), "no open swap")
}

func TestSwapGuards(t *testing.T) {
	h, swap, catA, catB := setupSwap(t)
	alice, bob := h.users[1], h.users[2]
	eve := h.users[0]

	// Proposing without escrowing first fails.
	h.callExpectFail(1, alice, swap, contracts.EncodeCall("propose",
		contracts.ArgAddress(catA), contracts.ArgAddress(catB), contracts.ArgAddress(bob.Address())),
		"not escrowed")

	h.call(1, alice, catA, contracts.EncodeCall("transferOwner", contracts.ArgAddress(swap)), 0)
	h.call(1, alice, swap, contracts.EncodeCall("propose",
		contracts.ArgAddress(catA), contracts.ArgAddress(catB), contracts.ArgAddress(bob.Address())), 0)

	// Only the named counterparty may accept.
	h.callExpectFail(1, eve, swap, contracts.EncodeCall("accept", contracts.ArgUint(1)), "is for")
	// Accepting without escrowing the wanted asset fails.
	h.callExpectFail(1, bob, swap, contracts.EncodeCall("accept", contracts.ArgUint(1)), "not escrowed")
	// Only the proposer cancels; cancel returns the asset.
	h.callExpectFail(1, bob, swap, contracts.EncodeCall("cancel", contracts.ArgUint(1)), "proposer")
	h.call(1, alice, swap, contracts.EncodeCall("cancel", contracts.ArgUint(1)), 0)
	if got := ownerOf(t, h, catA); got != alice.Address() {
		t.Fatalf("cancel must return the cat, owner = %s", got)
	}
}

// TestSwapAfterCrossChainMove is the full §IX story: the cats start on
// different chains, migrate to the swap's chain via the Move protocol, and
// are exchanged there in one atomic transaction.
func TestSwapAfterCrossChainMove(t *testing.T) {
	h := newHarness(t, 3)
	owner := h.users[0]
	alice, bob := h.users[1], h.users[2]

	// Registries at the same address on both chains (CREATE2-deployed via
	// the harness uses plain CREATE; deploy one per chain and mint there).
	reg1 := h.deploy(1, owner, contracts.KittyRegistryName,
		contracts.KittyRegistryConstructorArgs(owner.Address()), 0)
	reg2 := h.deploy(2, owner, contracts.KittyRegistryName,
		contracts.KittyRegistryConstructorArgs(owner.Address()), 0)
	swap := h.deploy(2, owner, contracts.SwapName, nil, 0)

	mint := func(chain hashing.ChainID, reg hashing.Address, genes byte, to hashing.Address) hashing.Address {
		var g [32]byte
		g[31] = genes
		rec := h.call(chain, owner, reg, contracts.EncodeCall("createPromoKitty",
			contracts.ArgWord(g), contracts.ArgAddress(to)), 0)
		cat, err := contracts.KittyCreated(onlyOne(t, rec, contracts.TopicKittyCreated))
		if err != nil {
			t.Fatal(err)
		}
		return cat
	}
	catA := mint(1, reg1, 1, alice.Address()) // on chain 1
	catB := mint(2, reg2, 2, bob.Address())   // on chain 2, where the swap lives

	// Alice's cat migrates to the swap's chain.
	h.moveContract(1, 2, alice, catA)

	// Escrow both, propose, accept — all local to chain 2 now.
	h.call(2, alice, catA, contracts.EncodeCall("transferOwner", contracts.ArgAddress(swap)), 0)
	h.call(2, alice, swap, contracts.EncodeCall("propose",
		contracts.ArgAddress(catA), contracts.ArgAddress(catB), contracts.ArgAddress(bob.Address())), 0)
	h.call(2, bob, catB, contracts.EncodeCall("transferOwner", contracts.ArgAddress(swap)), 0)
	rec := h.call(2, bob, swap, contracts.EncodeCall("accept", contracts.ArgUint(1)), 0)

	swapped := false
	for _, log := range rec.Logs {
		if len(log.Topics) == 1 && log.Topics[0] == contracts.TopicSwapped {
			swapped = true
		}
	}
	if !swapped {
		t.Fatal("Swapped event missing")
	}
	// Bob now owns the migrated cat and can move it wherever he operates.
	ret := h.view(2, bob.Address(), catA, contracts.EncodeCall("owner"))
	got, err := contracts.AsAddress(ret)
	if err != nil || got != bob.Address() {
		t.Fatalf("catA owner = %x (%v)", ret, err)
	}
	h.call(2, bob, catA, core.MoveToInput(1), 0)
	if h.chains[2].StateDB().GetLocation(catA) != 1 {
		t.Fatal("bob must be able to move his new cat")
	}
}
