package relay

import (
	"testing"
	"time"

	"scmove/internal/chain"
	"scmove/internal/core"
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
// safety oracle green.
func TestCrashAtEveryStep(t *testing.T) {
	for _, kinds := range []struct {
		name     string
		src, dst trie.Kind
	}{
		{"mpt-to-iavl", trie.KindMPT, trie.KindIAVL},
		{"iavl-to-mpt", trie.KindIAVL, trie.KindMPT},
	} {
		t.Run(kinds.name, func(t *testing.T) {
			n := crashRun(t, kinds.src, kinds.dst, 0)
			if n < 5 {
				t.Fatalf("an uncrashed Move handled %d events; the sweep would check next to nothing", n)
			}
			for k := uint64(1); k <= n; k++ {
				crashRun(t, kinds.src, kinds.dst, k)
			}
		})
	}
}

// crashRun runs one Move on a fresh rig, crashing and restarting the
// relayer once the entry has handled k events (k 0: never), checks the
// outcome and returns how many events the last mover's entry handled.
func crashRun(t *testing.T, srcKind, dstKind trie.Kind, k uint64) uint64 {
	t.Helper()
	r := newIdleRigOn(t, srcKind, dstKind)
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
	o.Check(t)
	return e.seq
}
