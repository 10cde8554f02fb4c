package relay

import (
	"testing"
	"time"

	"scmove/internal/chain"
	"scmove/internal/core"
	"scmove/internal/evm"
	"scmove/internal/hashing"
	"scmove/internal/oracle"
	"scmove/internal/trie"
	"scmove/internal/types"
)

// rigChains shows the rig's two chains to the safety oracle.
type rigChains struct{ r *moverRig }

func (c rigChains) ChainIDs() []hashing.ChainID { return []hashing.ChainID{1, 2} }

func (c rigChains) Chain(id hashing.ChainID) *chain.Chain {
	if id == 1 {
		return c.r.src
	}
	return c.r.dst
}

func (c rigChains) Now() time.Duration { return c.r.sched.Now() }

// TestCrashAtEveryStep crashes the relayer at every point of a Move, MPT →
// IAVL and IAVL → MPT. The crash points are the events Mover.handle
// delivers: an uncrashed Move handles n of them, and for every k up to n
// the sweep steps the scheduler until the entry has handled k, crashes the
// mover, restarts one on DecodeJournal(j.Encode()) and calls Recover. The
// Move must complete with exactly one Move1 and one successful Move2
// committed, leave the contract live on the target only, and keep the
// safety oracle green. The stale-base sweep returns the contract to a
// target holding its stale copy, which the target prunes once the delta
// is built: the delta is refused, and the relayer falls back to the full
// payload, with crash points between the refusal and the resubmission.
func TestCrashAtEveryStep(t *testing.T) {
	for _, kinds := range []struct {
		name      string
		src, dst  trie.Kind
		staleBase bool
	}{
		{"mpt-to-iavl", trie.KindMPT, trie.KindIAVL, false},
		{"iavl-to-mpt", trie.KindIAVL, trie.KindMPT, false},
		{"stale-base", trie.KindMPT, trie.KindIAVL, true},
	} {
		t.Run(kinds.name, func(t *testing.T) {
			n := crashRun(t, kinds.src, kinds.dst, 0, kinds.staleBase)
			if n < 5 {
				t.Fatalf("an uncrashed Move handled %d events; the sweep would check next to nothing", n)
			}
			for k := uint64(1); k <= n; k++ {
				crashRun(t, kinds.src, kinds.dst, k, kinds.staleBase)
			}
		})
	}
}

// plantStaleCopy leaves on the rig's target the locked copy an earlier
// residency would have: the contract's code, its slot 1 and a slot 2 it has
// since deleted, Lc naming the source. The Move there is then a return,
// and its Move2 a delta.
func plantStaleCopy(t *testing.T, r *moverRig) {
	t.Helper()
	db := r.dst.StateDB()
	db.CreateContract(r.contract, r.src.StateDB().GetCode(r.contract))
	db.SetStorage(r.contract, evm.Word{31: 1}, evm.Word{31: 42})
	db.SetStorage(r.contract, evm.Word{31: 2}, evm.Word{31: 7})
	db.SetLocation(r.contract, 1)
	db.Commit()
}

// pruneOnceBuilt prunes the target's stale copy as soon as the move's
// payload is built, so the delta reaches a target that no longer holds its
// base.
func pruneOnceBuilt(t *testing.T, r *moverRig) {
	var watch func()
	watch = func() {
		if e, ok := r.mover.Journal().Entry(r.contract); ok && e.Payload != nil {
			if !e.Payload.IsDelta() {
				t.Error("the payload back to a stale copy is not a delta")
			}
			if err := r.dst.StateDB().PruneStale(r.contract); err != nil {
				t.Error(err)
			}
			return
		}
		r.sched.After(10*time.Millisecond, watch)
	}
	r.sched.After(0, watch)
}

// crashRun runs one Move on a fresh rig, crashing and restarting the
// relayer once the entry has handled k events (k 0: never), checks the
// outcome and returns how many events the last mover's entry handled. With
// staleBase the Move is a return whose base the target prunes.
func crashRun(t *testing.T, srcKind, dstKind trie.Kind, k uint64, staleBase bool) uint64 {
	t.Helper()
	r := newIdleRigOn(t, srcKind, dstKind)
	if staleBase {
		plantStaleCopy(t, r)
	}
	o := oracle.Attach(rigChains{r})
	var move1s, move2s int
	r.src.OnBlock(func(b *types.Block, _ []*types.Receipt) {
		for _, tx := range b.Txs {
			if tx.To == r.contract {
				move1s++
			}
		}
	})
	r.dst.OnBlock(func(b *types.Block, rs []*types.Receipt) {
		for i, tx := range b.Txs {
			if tx.Kind == types.TxMove2 && rs[i].Succeeded() {
				move2s++
			}
		}
	})
	r.mover = NewMover(r.sched, r.src, r.dst, NewJournal(), r.counters)
	r.mover.Move(r.cl, r.contract, core.MoveToInput(2), nil)
	if staleBase {
		pruneOnceBuilt(t, r)
	}
	if k > 0 {
		e, _ := r.mover.Journal().Entry(r.contract)
		for e.seq < k && r.sched.Step() {
		}
		r.mover.Crash()
		journal, err := DecodeJournal(r.mover.Journal().Encode())
		if err != nil {
			t.Fatalf("crash at %d: %v", k, err)
		}
		r.mover = NewMover(r.sched, r.src, r.dst, journal, r.counters)
		if err := r.mover.Recover(r.cl); err != nil {
			t.Fatalf("crash at %d: %v", k, err)
		}
		want := uint64(0) // a finished move has nothing to recover
		if e.InFlight() {
			want = 1
		}
		if got := r.counters.Get("relay.recoveries"); got != want {
			t.Fatalf("crash at %d (%v): %d recoveries, want %d", k, e.Stage, got, want)
		}
	}
	if !r.runUntil(func() bool { return r.stage() >= StageDone }, time.Hour) {
		t.Fatalf("crash at %d: the move did not finish, at %v", k, r.stage())
	}
	e, _ := r.mover.Journal().Entry(r.contract)
	if e.Stage != StageDone {
		t.Fatalf("crash at %d: the move ended %v: %v", k, e.Stage, e.Result.Err)
	}
	// Let any resubmission still in a pool reach a block.
	r.sched.RunUntil(r.sched.Now() + 10*time.Second)
	if move1s != 1 || move2s != 1 {
		t.Fatalf("crash at %d: %d Move1s and %d successful Move2s committed, want 1 and 1", k, move1s, move2s)
	}
	if r.src.StateDB().GetLocation(r.contract) != 2 || r.dst.StateDB().GetLocation(r.contract) != 2 {
		t.Fatalf("crash at %d: the contract must be live on chain 2 only", k)
	}
	if fell := r.counters.Get("relay.full_fallbacks"); fell != map[bool]uint64{true: 1}[staleBase] {
		t.Fatalf("crash at %d: %d fallbacks to the full payload", k, fell)
	}
	if staleBase {
		if got := r.dst.StateDB().GetStorage(r.contract, evm.Word{31: 2}); got != (evm.Word{}) {
			t.Fatalf("crash at %d: the slot deleted abroad reads %x at home", k, got)
		}
	}
	o.Check(t)
	return e.seq
}
