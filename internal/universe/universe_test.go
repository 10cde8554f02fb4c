package universe

import (
	"slices"
	"testing"
	"time"

	"scmove/internal/chain"
	"scmove/internal/contracts"
	"scmove/internal/hashing"
	"scmove/internal/relay"
	"scmove/internal/state"
	"scmove/internal/u256"
)

// newIBCUniverse builds the paper's deployment: chain 1 Ethereum-like (PoW,
// 15 s, p=6), chain 2 Burrow-like (BFT, 5 s, p=2).
func newIBCUniverse(t *testing.T, clients int) *Universe {
	t.Helper()
	u, err := New(DefaultConfig(clients))
	if err != nil {
		t.Fatal(err)
	}
	u.Start()
	return u
}

func TestChainsProduceBlocks(t *testing.T) {
	u := newIBCUniverse(t, 1)
	u.Run(2 * time.Minute)
	eth, bur := u.Chain(1), u.Chain(2)
	if eth.Head().Height < 4 || eth.Head().Height > 14 {
		t.Fatalf("eth height after 2 min = %d, want ≈8", eth.Head().Height)
	}
	if bur.Head().Height < 18 || bur.Head().Height > 24 {
		t.Fatalf("burrow height after 2 min = %d, want ≈22", bur.Head().Height)
	}
	// Header relays keep the light clients current.
	if got := bur.Headers().Head(1); got+2 < eth.Head().Height {
		t.Fatalf("burrow's view of eth head = %d, eth at %d", got, eth.Head().Height)
	}
	if got := eth.Headers().Head(2); got+2 < bur.Head().Height {
		t.Fatalf("eth's view of burrow head = %d, burrow at %d", got, bur.Head().Height)
	}
}

// TestMoveBurrowToEthereum runs the full IBC move under consensus timing:
// the Fig. 8 "Burrow to Ethereum" direction.
func TestMoveBurrowToEthereum(t *testing.T) {
	u := newIBCUniverse(t, 1)
	cl := u.Client(0)
	bur, eth := u.Chain(2), u.Chain(1)

	store, err := u.MustDeploy(cl, bur, contracts.StoreName,
		contracts.StoreConstructorArgs(cl.Address(), 10), u256.Zero(), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	res, err := u.MoveAndWait(cl, 2, 1, store, 5*time.Minute)
	if err != nil {
		t.Fatal(err)
	}

	// The contract now lives on Ethereum with identical state.
	if eth.StateDB().GetLocation(store) != 1 {
		t.Fatal("store must live on chain 1")
	}
	v, err := eth.StaticCall(cl.Address(), store, contracts.EncodeCall("get", contracts.ArgUint(3)))
	if err != nil || u256.FromBytes(v).IsZero() {
		t.Fatalf("state lost: %x err=%v", v, err)
	}
	// Phase shape (paper Fig. 8, Burrow→Ethereum ≈ 30-50 s total):
	// Move1 lands in ~one Burrow block; the wait is ≥ p+lag = 3 blocks of
	// 5 s; Move2 lands in ~one Ethereum block (15 s mean).
	if res.Move1Latency() < 2*time.Second || res.Move1Latency() > 15*time.Second {
		t.Errorf("move1 latency = %v", res.Move1Latency())
	}
	if res.WaitProofLatency() < 10*time.Second || res.WaitProofLatency() > 40*time.Second {
		t.Errorf("wait+proof latency = %v", res.WaitProofLatency())
	}
	if res.Total() > 2*time.Minute {
		t.Errorf("total = %v", res.Total())
	}
	if res.Move1Gas == 0 || res.Move2Gas == 0 {
		t.Error("gas must be recorded")
	}
}

// TestMoveEthereumToBurrow is the opposite direction, dominated by the
// 6-block (≈90 s) Ethereum confirmation wait (Fig. 8, right).
func TestMoveEthereumToBurrow(t *testing.T) {
	u := newIBCUniverse(t, 1)
	cl := u.Client(0)
	eth, bur := u.Chain(1), u.Chain(2)

	store, err := u.MustDeploy(cl, eth, contracts.StoreName,
		contracts.StoreConstructorArgs(cl.Address(), 10), u256.Zero(), 3*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	res, err := u.MoveAndWait(cl, 1, 2, store, 10*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if bur.StateDB().GetLocation(store) != 2 {
		t.Fatal("store must live on chain 2")
	}
	// The p-block wait dominates: 6 blocks × 15 s mean ≈ 90 s expected
	// (exponential intervals make single runs vary widely).
	if res.WaitProofLatency() < 20*time.Second || res.WaitProofLatency() > 5*time.Minute {
		t.Errorf("wait+proof = %v, want ≈90 s", res.WaitProofLatency())
	}
	if res.WaitProofLatency() < res.Move2Latency() {
		t.Errorf("the confirmation wait must dominate: wait=%v move2=%v",
			res.WaitProofLatency(), res.Move2Latency())
	}
	if res.Total() < res.WaitProofLatency() {
		t.Error("total must include the wait")
	}
}

// TestMoveRoundTripReturns moves a contract out and back (Lc tracking,
// §III-G(b)).
func TestMoveRoundTripReturns(t *testing.T) {
	u := newIBCUniverse(t, 1)
	cl := u.Client(0)
	bur := u.Chain(2)

	store, err := u.MustDeploy(cl, bur, contracts.StoreName,
		contracts.StoreConstructorArgs(cl.Address(), 3), u256.Zero(), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := u.MoveAndWait(cl, 2, 1, store, 5*time.Minute); err != nil {
		t.Fatal(err)
	}
	if _, err := u.MoveAndWait(cl, 1, 2, store, 10*time.Minute); err != nil {
		t.Fatal(err)
	}
	if bur.StateDB().GetLocation(store) != 2 {
		t.Fatal("contract must be home again")
	}
	if bur.StateDB().GetMoveNonce(store) != 2 {
		t.Fatalf("move nonce = %d, want 2", bur.StateDB().GetMoveNonce(store))
	}
	// Both chains' Lc fields point at chain 2 — a client can find the
	// contract from either chain (§III-G(b)).
	if u.Chain(1).StateDB().GetLocation(store) != 2 {
		t.Fatal("source tombstone must point at the contract's home")
	}
}

// TestMoveHomeDropsSlotsDeletedAbroad is the return-home regression: a slot
// zeroed while the contract lived on another chain must be gone when the
// contract comes back, not resurrected from the stale copy its home kept
// (§III-G(c) lets a chain keep that copy; Move2 installs the proven storage
// in its place).
func TestMoveHomeDropsSlotsDeletedAbroad(t *testing.T) {
	u := newIBCUniverse(t, 1)
	cl := u.Client(0)
	eth, bur := u.Chain(1), u.Chain(2)

	store, err := u.MustDeploy(cl, bur, contracts.StoreName,
		contracts.StoreConstructorArgs(cl.Address(), 5), u256.Zero(), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := u.MoveAndWait(cl, 2, 1, store, 5*time.Minute); err != nil {
		t.Fatal(err)
	}
	var zero [32]byte
	if _, err := u.MustCall(cl, eth, store,
		contracts.EncodeCall("set", contracts.ArgUint(3), contracts.ArgWord(zero)), u256.Zero(), 5*time.Minute); err != nil {
		t.Fatal(err)
	}
	if _, err := u.MoveAndWait(cl, 1, 2, store, 10*time.Minute); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 5; i++ {
		v, err := bur.StaticCall(cl.Address(), store, contracts.EncodeCall("get", contracts.ArgUint(i)))
		if err != nil {
			t.Fatal(err)
		}
		if gone := u256.FromBytes(v).IsZero(); gone != (i == 3) {
			t.Fatalf("slot %d back home reads %x", i, v)
		}
	}
	// The home holds exactly the slots the proof carried — the key set of
	// the locked copy left abroad. (Values may differ where moveFinish wrote
	// after the import.)
	home, abroad := bur.StateDB().StorageEntries(store), eth.StateDB().StorageEntries(store)
	sameKeys := slices.EqualFunc(home, abroad, func(a, b state.StorageEntry) bool { return a.Key == b.Key })
	if !sameKeys {
		t.Fatalf("home holds %d slots %v, the proven copy abroad %d slots %v", len(home), home, len(abroad), abroad)
	}
}

// TestFig3CurrencyPegging runs the complete Fig. 3 cycle: lock currency on
// the Ethereum-like chain inside a pegged-token contract, move it to the
// Burrow-like chain, mint, transfer the token, burn-and-return, withdraw.
func TestFig3CurrencyPegging(t *testing.T) {
	u := newIBCUniverse(t, 2)
	alice, bob := u.Client(0), u.Client(1)
	eth, bur := u.Chain(1), u.Chain(2)

	relayAddr, err := u.MustDeploy(alice, eth, contracts.TokenRelayName, nil, u256.Zero(), 3*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	// Tcreate: lock 10^12 wei for bob, destined to chain 2 (large enough
	// that transaction fees are negligible next to it).
	const peg = uint64(1_000_000_000_000)
	rec, err := u.MustCall(alice, eth, relayAddr, contracts.EncodeCall("create",
		contracts.ArgUint(2), contracts.ArgAddress(bob.Address())), u256.FromUint64(peg), 3*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	pegged, err := contracts.RelayCreated(rec.Logs)
	if err != nil {
		t.Fatal(err)
	}
	if eth.StateDB().GetLocation(pegged) != 2 {
		t.Fatal("pegged token must be locked towards chain 2")
	}

	// Complete the move (bob finishes it — any client may, §III-B).
	if _, err := u.CompleteAndWait(bob, 1, 2, pegged, 10*time.Minute); err != nil {
		t.Fatal(err)
	}
	if bur.StateDB().GetLocation(pegged) != 2 {
		t.Fatal("pegged token must live on chain 2")
	}
	// The locked currency traveled with the contract's account record.
	if got := bur.StateDB().GetBalance(pegged); !got.Eq(u256.FromUint64(peg)) {
		t.Fatalf("pegged balance on chain 2 = %s", got)
	}

	// Tmint: bob mints tokens backed by the locked currency.
	if _, err := u.MustCall(bob, bur, pegged, contracts.EncodeCall("mint"), u256.Zero(), time.Minute); err != nil {
		t.Fatal(err)
	}
	bal, err := bur.StaticCall(bob.Address(), pegged,
		contracts.EncodeCall("tokenBalance", contracts.ArgAddress(bob.Address())))
	if err != nil || !u256.FromBytes(bal).Eq(u256.FromUint64(peg)) {
		t.Fatalf("minted balance = %x err=%v", bal, err)
	}
	// Double mint is refused.
	if _, err := u.MustCall(bob, bur, pegged, contracts.EncodeCall("mint"), u256.Zero(), time.Minute); err == nil {
		t.Fatal("second mint must fail")
	}

	// Tokens circulate on the target chain.
	if _, err := u.MustCall(bob, bur, pegged, contracts.EncodeCall("tokenTransfer",
		contracts.ArgAddress(alice.Address()), contracts.ArgU256(u256.FromUint64(2000))), u256.Zero(), time.Minute); err != nil {
		t.Fatal(err)
	}
	// Alice sends them back so bob holds the full amount again.
	if _, err := u.MustCall(alice, bur, pegged, contracts.EncodeCall("tokenTransfer",
		contracts.ArgAddress(bob.Address()), contracts.ArgU256(u256.FromUint64(2000))), u256.Zero(), time.Minute); err != nil {
		t.Fatal(err)
	}

	// Burn and return home (Move1 back to chain 1), then withdraw.
	if _, err := u.MustCall(bob, bur, pegged, contracts.EncodeCall("burnAndReturn"), u256.Zero(), time.Minute); err != nil {
		t.Fatal(err)
	}
	if _, err := u.CompleteAndWait(bob, 2, 1, pegged, 10*time.Minute); err != nil {
		t.Fatal(err)
	}
	before := eth.StateDB().GetBalance(bob.Address())
	if _, err := u.MustCall(bob, eth, pegged, contracts.EncodeCall("withdraw"), u256.Zero(), 3*time.Minute); err != nil {
		t.Fatal(err)
	}
	after := eth.StateDB().GetBalance(bob.Address())
	// Bob gained the locked amount minus the withdraw transaction's fee,
	// which is bounded by gasLimit * gasPrice = 2*10^7.
	gained := after.Sub(before)
	fee := u256.FromUint64(peg).Sub(gained)
	if gained.Gt(u256.FromUint64(peg)) || fee.Gt(u256.FromUint64(100_000_000)) {
		t.Fatalf("withdraw delta = %s (fee %s)", gained, fee)
	}
}

// TestLocateFollowsLcPointers checks §III-G(b): after a contract moves, a
// client who only knows the original chain can find its current home by
// chasing Lc tombstones.
func TestLocateFollowsLcPointers(t *testing.T) {
	u := newIBCUniverse(t, 1)
	cl := u.Client(0)
	store, err := u.MustDeploy(cl, u.Chain(2), contracts.StoreName,
		contracts.StoreConstructorArgs(cl.Address(), 2), u256.Zero(), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	chains := []*chain.Chain{u.Chain(1), u.Chain(2)}
	if loc, ok := relay.Locate(chains, store); !ok || loc != 2 {
		t.Fatalf("before move: loc=%v ok=%v", loc, ok)
	}
	if _, err := u.MoveAndWait(cl, 2, 1, store, 10*time.Minute); err != nil {
		t.Fatal(err)
	}
	if loc, ok := relay.Locate(chains, store); !ok || loc != 1 {
		t.Fatalf("after move: loc=%v ok=%v", loc, ok)
	}
	// An unknown contract is not found anywhere.
	if _, ok := relay.Locate(chains, hashing.AddressFromBytes([]byte{0xEE})); ok {
		t.Fatal("unknown contract must not be located")
	}
}
