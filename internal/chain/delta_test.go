package chain

import (
	"runtime"
	"strings"
	"testing"

	"scmove/internal/core"
	"scmove/internal/evm"
	"scmove/internal/hashing"
	"scmove/internal/keys"
	"scmove/internal/state"
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
// memory that is reused: the relayer's delta build (core.BuildMoveDelta
// reading both copies into its scratch) and ExpectMove2's read of the
// target's copy (into a run from the chain's free list). Each allocates
// the same objects and bytes for a 500-slot contract as for a 2 000-slot
// one; the read allocates at most the two closures of a resident tree's
// walk.
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
			if p, err = core.BuildMoveDelta(src, c.StateDB(), contract, 1, sc); err != nil {
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
		// The payload is expected already: a second ExpectMove2 reads the
		// base, finds the expectation and puts the run back.
		got.readAllocs = testing.AllocsPerRun(20, func() { c.ExpectMove2(p) })
		if preparedCount(c) != 1 || e.res.Err != nil || e.res.N != n {
			t.Fatalf("%d slots: %d preparations, the first for %d entries (%v)", n, preparedCount(c), e.res.N, e.res.Err)
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
// out of gas, and the refusal allocates no more bytes for a 2 000-slot
// contract than for a 500-slot one: the count before the charge scans the
// copy, and nothing is merged, hashed or built. At the exact gas the
// delta passes the charge and is refused for its proof.
func TestUnpaidDeltaDoesNoStorageWork(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unstable under -race")
	}
	kp := keys.Deterministic(1)
	contract := hashing.AddressFromBytes([]byte{0xde})
	refusal := func(n int) uint64 {
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
		runtime.ReadMemStats(&before)
		rec := apply(txs[1])
		runtime.ReadMemStats(&after)
		if !strings.Contains(rec.Err, evm.ErrOutOfGas.Error()) || rec.GasUsed != cost-1 {
			t.Fatalf("%d slots: a delta one gas short reads %q, used %d of %d", n, rec.Err, rec.GasUsed, cost-1)
		}
		if rec := apply(txs[2]); rec.Succeeded() || strings.Contains(rec.Err, evm.ErrOutOfGas.Error()) {
			t.Fatalf("%d slots: a delta at its exact gas reads %q, want its proof refused", n, rec.Err)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	small, large := refusal(500), refusal(2000)
	if large > small+1024 {
		t.Fatalf("an unpaid delta allocates %d bytes at 500 slots, %d at 2 000: it did storage work", small, large)
	}
}
