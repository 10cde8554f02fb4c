package chain

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"scmove/internal/core"
	"scmove/internal/evm"
	"scmove/internal/hashing"
	"scmove/internal/keys"
	"scmove/internal/state"
	"scmove/internal/state/backend"
	"scmove/internal/trees"
	"scmove/internal/trie"
	"scmove/internal/types"
)

// slotWord is the key, or the nonzero value, i of a test contract's slots.
func slotWord(i int) evm.Word {
	var w evm.Word
	w[29], w[30], w[31] = 1, byte(i>>8), byte(i)
	return w
}

// fillContract gives db a contract of n slots located on loc, committed.
func fillContract(db *state.DB, contract hashing.Address, n int, loc hashing.ChainID) {
	db.CreateContract(contract, stopCode)
	for i := 0; i < n; i++ {
		db.SetStorage(contract, slotWord(i), slotWord(i+1))
	}
	db.SetLocation(contract, loc)
	db.Commit()
}

// TestDeltaWorkAllocatesNoRun pins the two O(n) reads of a Move2 home to
// memory that is reused: the relayer's delta build (Chain.BuildMoveDelta
// reading the source's copy into its scratch and the target's into a run
// from the target's free list, which it lends to the preparation) and
// ExpectMove2's read of the target's copy when nothing was lent. Each
// allocates the same objects and bytes for a 500-slot contract as for a
// 2 000-slot one; the read allocates at most the two closures of a
// resident tree's walk.
func TestDeltaWorkAllocatesNoRun(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unstable under -race")
	}
	contract := hashing.AddressFromBytes([]byte{0xde})
	type cost struct {
		buildAllocs float64
		buildBytes  uint64
		readAllocs  float64
	}
	measure := func(n int) cost {
		src, err := state.NewDB(mptSource.ID, trie.KindMPT)
		if err != nil {
			t.Fatal(err)
		}
		fillContract(src, contract, n, 2)
		src.SetStorage(contract, slotWord(7), slotWord(70_000)) // the one write abroad
		src.Commit()
		c := newChain(t, burrowConfig(2), []core.ChainParams{mptSource}, keys.Deterministic(1))
		fillContract(c.StateDB(), contract, n, mptSource.ID)

		sc := new(core.MoveScratch)
		var p *types.Move2Payload
		build := func() {
			if p, err = c.BuildMoveDelta(src, contract, 1, sc); err != nil {
				t.Fatal(err)
			}
		}
		build()
		if !p.IsDelta() || len(p.Storage) != 1 || len(p.Deleted) != 0 {
			t.Fatalf("%d slots: the delta carries %d entries and %d deleted keys, want 1 and 0", n, len(p.Storage), len(p.Deleted))
		}
		var got cost
		got.buildAllocs = testing.AllocsPerRun(20, build)
		got.buildBytes = ^uint64(0)
		for i := 0; i < 5; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			build()
			runtime.ReadMemStats(&after)
			got.buildBytes = min(got.buildBytes, after.TotalAlloc-before.TotalAlloc)
		}

		c.ExpectMove2(p)
		c.prepMu.Lock()
		e := c.prep[0]
		c.prepMu.Unlock()
		<-e.done
		// The payload is expected already: a second ExpectMove2, lent
		// nothing, reads the base, finds the expectation and puts the run
		// back.
		got.readAllocs = testing.AllocsPerRun(20, func() { c.ExpectMove2(p) })
		if preparedCount(c) != 1 || e.res.Err != nil || e.res.Tree != nil {
			t.Fatalf("%d slots: %d preparations, the first with a tree %v (%v)", n, preparedCount(c), e.res.Tree != nil, e.res.Err)
		}
		return got
	}
	small, large := measure(500), measure(2000)
	if small != large || small.readAllocs > 2 {
		t.Fatalf("allocations at 500 slots %+v, at 2 000 %+v: want equal, and at most 2 per read", small, large)
	}
}

// TestUnpaidDeltaDoesNoStorageWork sends a delta Move2 nobody announced —
// one entry, the target's copy as its base, no valid proof — with a gas
// limit one below the gas of the full payload it stands for. It is refused
// out of gas, and the refusal reads as many storage entries and allocates
// no more bytes for a 2 000-slot contract than for a 500-slot one: the
// count before the charge is the copy's slot count and a point read per
// key the delta names, and nothing is read whole, merged, hashed or built.
// At the exact gas the delta passes the charge and is refused for its
// proof.
func TestUnpaidDeltaDoesNoStorageWork(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unstable under -race")
	}
	kp := keys.Deterministic(1)
	contract := hashing.AddressFromBytes([]byte{0xde})
	type spent struct{ bytes, reads uint64 }
	refusal := func(n int) spent {
		c := newChain(t, burrowConfig(2), []core.ChainParams{mptSource}, kp)
		fillContract(c.StateDB(), contract, n, mptSource.ID)
		copyAcct, _ := c.StateDB().GetAccount(contract)
		p := &types.Move2Payload{
			Contract:     contract,
			SourceChain:  mptSource.ID,
			SourceHeight: 1,
			AccountProof: []byte("not a proof"),
			Base:         copyAcct.StorageRoot,
			Storage:      []types.StorageEntry{{Key: slotWord(7), Value: slotWord(70_000)}},
		}
		cost := c.cfg.Schedule.IntrinsicGas(nil, false) + c.move2Gas(stopCode, n, p.AccountProof)
		txs := make([]*types.Transaction, 3)
		for i, gas := range []uint64{cost - 1, cost - 1, cost} {
			txs[i] = move2Tx(t, kp, 2, uint64(i), p)
			txs[i].GasLimit = gas
			if err := txs[i].Sign(kp); err != nil {
				t.Fatal(err)
			}
		}
		apply := func(tx *types.Transaction) *types.Receipt {
			_, rs := c.ApplyBlock([]*types.Transaction{tx}, 10+tx.Nonce, ProposerAddress(2, 0))
			return rs[0]
		}
		// The first refusal leaves the run the copy was read into on the
		// chain's free list; the second reads into it.
		apply(txs[0])
		var before, after runtime.MemStats
		reads := c.StateDB().SlotsRead()
		runtime.ReadMemStats(&before)
		rec := apply(txs[1])
		runtime.ReadMemStats(&after)
		reads = c.StateDB().SlotsRead() - reads
		if !strings.Contains(rec.Err, evm.ErrOutOfGas.Error()) || rec.GasUsed != cost-1 {
			t.Fatalf("%d slots: a delta one gas short reads %q, used %d of %d", n, rec.Err, rec.GasUsed, cost-1)
		}
		if rec := apply(txs[2]); rec.Succeeded() || strings.Contains(rec.Err, evm.ErrOutOfGas.Error()) {
			t.Fatalf("%d slots: a delta at its exact gas reads %q, want its proof refused", n, rec.Err)
		}
		return spent{after.TotalAlloc - before.TotalAlloc, reads}
	}
	small, large := refusal(500), refusal(2000)
	if large.bytes > small.bytes+1024 || large.reads != small.reads {
		t.Fatalf("an unpaid delta allocates %d bytes and reads %d slots at 500 slots, %d and %d at 2 000: it did storage work",
			small.bytes, small.reads, large.bytes, large.reads)
	}
}

// homeWork is what a Move2 home cost its target chain: the storage entries
// it read and the tree nodes it built (state.DB.SlotsRead, TreeWork).
type homeWork struct{ reads, nodes uint64 }

// deltaHome lands a one-entry delta Move2 home on a chain of cfg and
// returns what it cost the chain, from the relayer's delta build on. The
// chain holds the stale copy of an n-slot contract, its tree shrunk to
// hash stubs when evicted (a file store keeping one whole tree, and
// another contract written since). Abroad, on a state of from's kind, slot
// 7 was written and the contract locked towards the chain, whose light
// client trusts that state's root. The relayer's steps are
// Chain.BuildMoveDelta and ExpectMove2; a block then applies the Move2.
func deltaHome(t *testing.T, cfg Config, from core.ChainParams, n int, evicted bool) homeWork {
	t.Helper()
	kp := keys.Deterministic(1)
	contract := hashing.AddressFromBytes([]byte{0xde})
	if evicted {
		cfg.State = state.Options{Backend: backend.KindFile, Dir: t.TempDir(), StorageTreeLimit: 1}
	}
	c := newChain(t, cfg, []core.ChainParams{from}, kp)
	defer c.Close()
	db := c.StateDB()
	fillContract(db, contract, n, from.ID)
	other := hashing.AddressFromBytes([]byte{0xdf})
	db.SetNonce(other, 1)
	db.SetStorage(other, slotWord(1), slotWord(1))
	db.Commit()
	if tree, _ := db.StorageTreeAt(contract); (trees.Stubs(tree) > 0) != evicted {
		t.Fatalf("%d slots: the copy's tree has %d stubs, evicted %v", n, trees.Stubs(tree), evicted)
	}

	src, err := state.NewDB(from.ID, from.TreeKind)
	if err != nil {
		t.Fatal(err)
	}
	fillContract(src, contract, n, cfg.ChainID)
	src.SetStorage(contract, slotWord(7), slotWord(70_000))
	src.SetMoveNonce(contract, 1)
	trustSource(t, c, from, src.Commit())

	reads, nodes := db.SlotsRead(), db.TreeWork().Nodes()
	p, err := c.BuildMoveDelta(src, contract, 1, new(core.MoveScratch))
	if err != nil || !p.IsDelta() || len(p.Storage) != 1 || len(p.Deleted) != 0 {
		t.Fatalf("%d slots: the payload %+v (%v) is not a one-entry delta", n, p, err)
	}
	c.ExpectMove2(p)
	tx := move2Tx(t, kp, cfg.ChainID, 0, p)
	tx.GasLimit = 100_000_000
	if err := tx.Sign(kp); err != nil {
		t.Fatal(err)
	}
	if _, rs := c.ApplyBlock([]*types.Transaction{tx}, 10, ProposerAddress(cfg.ChainID, 0)); !rs[0].Succeeded() {
		t.Fatalf("%d slots: the delta home failed: %s", n, rs[0].Err)
	}
	if got := db.GetStorage(contract, slotWord(7)); got != slotWord(70_000) {
		t.Fatalf("%d slots: slot 7 reads %x after the home", n, got)
	}
	return homeWork{db.SlotsRead() - reads, db.TreeWork().Nodes() - nodes}
}

// deltaHomes lists the Move2 homes deltaHome lands: on an MPT and an IAVL
// chain, from a chain of each kind, over an evicted and a resident copy.
func deltaHomes(t *testing.T, check func(t *testing.T, home func(n int) homeWork, evicted bool)) {
	for _, target := range []Config{ethConfig(1), burrowConfig(2)} {
		for _, from := range []core.ChainParams{mptSource, iavlSource} {
			for _, evicted := range []bool{true, false} {
				name := fmt.Sprintf("%s-%s/evicted-%v", from.TreeKind, target.TreeKind, evicted)
				t.Run(name, func(t *testing.T) {
					check(t, func(n int) homeWork { return deltaHome(t, target, from, n, evicted) }, evicted)
				})
			}
		}
	}
}

// TestDeltaHomeNodesScaleWithK pins the tree nodes a one-entry delta Move2
// home builds on its target to the change, not the contract: equal at 500
// and 2 000 slots, none over a resident copy, and over an evicted one some,
// but at most two stubs' worth (trees.StubEntries entries each) for the
// stub the delta's slot lands in, whatever the kinds — a delta from a chain of another kind
// is prepared, but its preparation hashes its merge without building it.
func TestDeltaHomeNodesScaleWithK(t *testing.T) {
	deltaHomes(t, func(t *testing.T, home func(n int) homeWork, evicted bool) {
		small, large := home(500), home(2000)
		bound := uint64(0)
		if evicted {
			bound = 2 * trees.StubEntries
		}
		if small.nodes != large.nodes || large.nodes > bound || (large.nodes > 0) != evicted {
			t.Fatalf("the home builds %d nodes at 500 slots, %d at 2 000: want equal, at most %d", small.nodes, large.nodes, bound)
		}
		t.Logf("%d nodes built, %d and %d entries read", large.nodes, small.reads, large.reads)
	})
}

// TestDeltaHomeReadsCopyOnce pins the reads of a delta Move2 home on its
// target: the copy is read whole once, by the relayer's delta build, which
// lends it to the preparation of a delta that needs one; beyond that the
// home reads the same few slots at 500 and at 2 000 slots.
func TestDeltaHomeReadsCopyOnce(t *testing.T) {
	deltaHomes(t, func(t *testing.T, home func(n int) homeWork, _ bool) {
		small, large := home(500), home(2000)
		if large.reads-small.reads != 1500 {
			t.Fatalf("the home reads %d storage entries at 500 slots, %d at 2 000: want the copy read once", small.reads, large.reads)
		}
	})
}
