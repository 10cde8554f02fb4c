package relay

import (
	"errors"
	"strings"
	"testing"
	"time"

	"scmove/internal/chain"
	"scmove/internal/core"
	"scmove/internal/evm"
	"scmove/internal/evm/asm"
	"scmove/internal/hashing"
	"scmove/internal/keys"
	"scmove/internal/metrics"
	"scmove/internal/simclock"
	"scmove/internal/simnet"
	"scmove/internal/state"
	"scmove/internal/trie"
	"scmove/internal/types"
	"scmove/internal/u256"
)

// TestTransientReceiptsAreRetried: the failures the Mover retries are
// recognised in the receipts a real chain writes for them — a proof height
// the light client does not know, one not yet p blocks deep, and a nonce the
// account is not at — and a forged proof, which no retry can cure, is not.
func TestTransientReceiptsAreRetried(t *testing.T) {
	kp := keys.Deterministic(1)
	src := core.ChainParams{ID: 10, TreeKind: trie.KindMPT, ConfirmationDepth: 2}
	hs := core.NewHeaderStore(src)
	cfg := chain.Config{ChainID: 2, TreeKind: trie.KindIAVL, Schedule: evm.BurrowSchedule(), MaxBlockTxs: 10, PoolLimit: 10}
	c, err := chain.New(cfg, hs, func(db *state.DB) { db.AddBalance(kp.Address(), u256.FromUint64(1<<50)) })
	if err != nil {
		t.Fatal(err)
	}
	// The source's heights 1 to 3 are known, with 3 the head: height 1 is
	// 2 blocks deep, height 2 only 1.
	headers := []*types.Header{{ChainID: 10, Height: 1}, {ChainID: 10, Height: 2}, {ChainID: 10, Height: 3}}
	if err := hs.Update(10, headers, 3); err != nil {
		t.Fatal(err)
	}
	move2 := func(nonce, height uint64) *types.Transaction {
		tx := &types.Transaction{
			ChainID: 2, Nonce: nonce, Kind: types.TxMove2, GasLimit: DefaultGasLimit, GasPrice: DefaultGasPrice,
			Move2: &types.Move2Payload{
				Contract: hashing.AddressFromBytes([]byte{0xc0}), SourceChain: 10, SourceHeight: height,
				AccountProof: []byte{1, 2, 3},
			},
		}
		if err := tx.Sign(kp); err != nil {
			t.Fatal(err)
		}
		return tx
	}
	_, recs := c.ApplyBlock([]*types.Transaction{move2(0, 9), move2(1, 2), move2(7, 1), move2(2, 1)},
		1, chain.ProposerAddress(2, 0))
	for i, want := range []struct {
		err       error
		transient bool
	}{
		{core.ErrNoHeader, true},
		{core.ErrNotConfirmed, true},
		{chain.ErrBadNonce, true},
		{core.ErrBadProof, false},
	} {
		rec := recs[i]
		if rec.Succeeded() || !strings.Contains(rec.Err, want.err.Error()) {
			t.Fatalf("receipt %d: %q, want a failure with %q", i, rec.Err, want.err)
		}
		if got := transientMove2(rec.Err); got != want.transient {
			t.Errorf("receipt %q: transient %v, want %v", rec.Err, got, want.transient)
		}
		if got := badNonce(rec.Err); got != (want.err == chain.ErrBadNonce) {
			t.Errorf("receipt %q: bad nonce %v", rec.Err, got)
		}
	}
	if want := "bad nonce 7, account at 2"; recs[2].Err != want {
		t.Errorf("nonce receipt %q, want %q", recs[2].Err, want)
	}
}

// moverRig is a source chain (1) and a target chain (2) that only the test
// drives: every second each chain that is not paused commits a block, and
// the source's new header reaches the target's light client unless the
// test withholds it (a withheld header arrives with the first one let
// through). The client's submissions reach the target over a link the test
// can cut. A second key, funded on both chains, lets a test complete the
// move as another client.
type moverRig struct {
	sched    *simclock.Scheduler
	src, dst *chain.Chain
	kp       *keys.KeyPair
	other    *keys.KeyPair
	cl       *Client
	toDst    *simnet.Link
	paused   map[hashing.ChainID]bool
	withhold bool
	held     []*types.Header
	counters *metrics.Counters
	mover    *Mover
	contract hashing.Address
	result   *MoveResult
}

// newMoverRig starts a move of a one-slot movable contract from chain 1 to
// chain 2.
func newMoverRig(t *testing.T) *moverRig {
	t.Helper()
	r := newIdleRig(t)
	r.mover = NewMover(r.sched, r.src, r.dst, NewJournal(), r.counters)
	r.mover.Move(r.cl, r.contract, core.MoveToInput(2), func(res *MoveResult) { r.result = res })
	return r
}

// newIdleRig builds the rig on two MPT chains, with both chains ticking,
// and the owner's client; no move is started.
func newIdleRig(t *testing.T) *moverRig {
	t.Helper()
	return newIdleRigOn(t, trie.KindMPT, trie.KindMPT)
}

// newIdleRigOn is newIdleRig with the source's and the target's state
// trees of the given kinds.
func newIdleRigOn(t *testing.T, srcKind, dstKind trie.Kind) *moverRig {
	t.Helper()
	sched := simclock.New()
	kp, other := keys.Deterministic(21), keys.Deterministic(22)
	chainCfg := func(id hashing.ChainID, kind trie.Kind) chain.Config {
		return chain.Config{
			ChainID: id, TreeKind: kind, Schedule: evm.EthereumSchedule(),
			BlockGasLimit: 100_000_000, MaxBlockTxs: 100, ConfirmationDepth: 2, PoolLimit: 1000,
		}
	}
	fund := func(db *state.DB) {
		db.AddBalance(kp.Address(), u256.FromUint64(1<<50))
		db.AddBalance(other.Address(), u256.FromUint64(1<<50))
	}
	src, err := chain.New(chainCfg(1, srcKind), core.NewHeaderStore(chainCfg(2, dstKind).Params()), fund)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := chain.New(chainCfg(2, dstKind), core.NewHeaderStore(chainCfg(1, srcKind).Params()), fund)
	if err != nil {
		t.Fatal(err)
	}
	r := &moverRig{
		sched: sched, src: src, dst: dst, kp: kp, other: other,
		toDst:    simnet.NewLink(sched, time.Millisecond, simnet.LinkFaults{}, 0),
		paused:   make(map[hashing.ChainID]bool),
		counters: metrics.NewCounters(),
		contract: hashing.AddressFromBytes([]byte{0xcc}),
	}
	// The contract moves itself to chain 2 when called anywhere else.
	src.StateDB().CreateContract(r.contract, asm.MustAssemble(`
		CHAINID
		PUSH1 2
		EQ
		PUSH @done
		JUMPI
		PUSH1 2
		MOVE
	@done:
		JUMPDEST
		STOP
	`))
	src.StateDB().SetStorage(r.contract, evm.Word{31: 1}, evm.Word{31: 42})
	src.StateDB().Commit()

	var tick func()
	tick = func() {
		if !r.paused[1] {
			src.ApplyBlock(src.ProposeBatch(), sched.NowUnix(), chain.ProposerAddress(1, 0))
			r.held = append(r.held, src.Head())
			if !r.withhold {
				if err := dst.Headers().Update(1, r.held, src.Head().Height); err != nil {
					t.Error(err)
				}
				r.held = nil
			}
		}
		if !r.paused[2] {
			dst.ApplyBlock(dst.ProposeBatch(), sched.NowUnix(), chain.ProposerAddress(2, 0))
		}
		sched.After(time.Second, tick)
	}
	sched.After(time.Second, tick)

	r.cl = NewClient(kp, map[hashing.ChainID]*simnet.Link{
		1: simnet.NewLink(sched, time.Millisecond, simnet.LinkFaults{}, 0),
		2: r.toDst,
	})
	return r
}

// stage is the move's journaled stage.
func (r *moverRig) stage() Stage {
	e, _ := r.mover.Journal().Entry(r.contract)
	return e.Stage
}

// runUntil advances simulated time in 100 ms steps until cond holds or
// limit passes, reporting whether cond held.
func (r *moverRig) runUntil(cond func() bool, limit time.Duration) bool {
	for end := r.sched.Now() + limit; r.sched.Now() < end; {
		if cond() {
			return true
		}
		r.sched.RunUntil(r.sched.Now() + 100*time.Millisecond)
	}
	return cond()
}

// finish runs the move to its end and returns its result.
func (r *moverRig) finish(t *testing.T) *MoveResult {
	t.Helper()
	if !r.runUntil(func() bool { return r.result != nil }, time.Hour) {
		t.Fatalf("move did not finish, at %v", r.stage())
	}
	return r.result
}

// requireMoved checks the move completed and the contract lives on chain 2.
func (r *moverRig) requireMoved(t *testing.T) {
	t.Helper()
	if res := r.finish(t); res.Err != nil {
		t.Fatalf("move failed: %v", res.Err)
	}
	if r.src.StateDB().GetLocation(r.contract) != 2 || r.dst.StateDB().GetLocation(r.contract) != 2 {
		t.Fatal("contract must be live on chain 2 only")
	}
}

// dropMove2 cuts the client's link to the target before Move2 is sent and
// returns when Move2 is on the (cut) wire.
func (r *moverRig) dropMove2(t *testing.T) {
	t.Helper()
	if !r.runUntil(func() bool { return r.stage() >= StageWaitConfirm }, time.Minute) {
		t.Fatalf("move did not reach the confirmation wait, at %v", r.stage())
	}
	r.toDst.SetCut(true)
	if !r.runUntil(func() bool { return r.stage() == StageMove2Submitted }, time.Minute) {
		t.Fatalf("Move2 was not submitted, at %v", r.stage())
	}
}

// TestMove2ResubmittedAfterStageDeadline drops the target's Move2 for one
// stage deadline: the deadline resubmits the same transaction and the move
// completes.
func TestMove2ResubmittedAfterStageDeadline(t *testing.T) {
	r := newMoverRig(t)
	r.dropMove2(t)
	// Heal after the deadline fired, before the backoff resubmits.
	r.sched.RunUntil(r.sched.Now() + stageDeadline + retryBase/2)
	r.toDst.SetCut(false)
	r.requireMoved(t)
	if got := r.counters.Get("relay.move2_retries"); got < 1 {
		t.Fatalf("move2_retries = %d, want at least 1", got)
	}
	if r.toDst.Stats().Dropped == 0 {
		t.Fatal("the cut link dropped nothing")
	}
}

// TestMove2RetryBudgetExhausted holds the drop past every stage deadline
// of the budget: after maxAttempts resubmissions the move fails with
// ErrRetryBudget on the Move2 leg.
func TestMove2RetryBudgetExhausted(t *testing.T) {
	r := newMoverRig(t)
	r.dropMove2(t)
	res := r.finish(t)
	if !errors.Is(res.Err, ErrRetryBudget) || !strings.HasPrefix(res.Err.Error(), "move2") {
		t.Fatalf("move ended with %v, want a move2 %v", res.Err, ErrRetryBudget)
	}
	if got := r.counters.Get("relay.move2_retries"); got != maxAttempts {
		t.Fatalf("move2_retries = %d, want %d", got, maxAttempts)
	}
	if r.stage() != StageFailed {
		t.Fatalf("journal stage = %v, want failed", r.stage())
	}
}

// TestAbandonedMoveCompletedByAnotherClient: a relayer exhausts its retry
// budget on a dropped Move2 after Move1 committed. The contract is then
// locked on the source and not yet live on the target. A fresh Mover,
// driven by a client other than the owner, completes the move from the
// committed Move1 alone (§III-B: anyone may complete a move).
func TestAbandonedMoveCompletedByAnotherClient(t *testing.T) {
	r := newMoverRig(t)
	before := r.src.StateDB().GetMoveNonce(r.contract)
	r.dropMove2(t)
	if res := r.finish(t); !errors.Is(res.Err, ErrRetryBudget) || res.Move1At == 0 {
		t.Fatalf("first relayer ended with %v (Move1 at %v), want %v after Move1 committed",
			res.Err, res.Move1At, ErrRetryBudget)
	}
	if r.src.StateDB().GetLocation(r.contract) != 2 || r.dst.StateDB().Exists(r.contract) {
		t.Fatal("after the abandoned Move2 the contract must be locked on chain 1 and absent on chain 2")
	}

	cl := NewClient(r.other, map[hashing.ChainID]*simnet.Link{
		2: simnet.NewLink(r.sched, time.Millisecond, simnet.LinkFaults{}, 0),
	})
	var res *MoveResult
	NewMover(r.sched, r.src, r.dst, NewJournal(), metrics.NewCounters()).
		Complete(cl, r.contract, func(m *MoveResult) { res = m })
	if !r.runUntil(func() bool { return res != nil }, 10*time.Minute) {
		t.Fatal("the second relayer did not finish the move")
	}
	if res.Err != nil {
		t.Fatalf("completion failed: %v", res.Err)
	}
	if rec, ok := r.dst.Receipt(res.Move2Tx); !ok || !rec.Succeeded() {
		t.Fatalf("completing Move2 receipt %+v", rec)
	}
	if r.src.StateDB().GetLocation(r.contract) != 2 || r.dst.StateDB().GetLocation(r.contract) != 2 {
		t.Fatal("contract must be live on chain 2 only")
	}
	if got := r.dst.StateDB().GetStorage(r.contract, evm.Word{31: 1}); got != (evm.Word{31: 42}) {
		t.Fatalf("moved slot reads %x, want 42", got)
	}
	if got := r.dst.StateDB().GetMoveNonce(r.contract); got != before+1 {
		t.Fatalf("move nonce %d after the move, want %d", got, before+1)
	}
}

// TestBadNonceReceiptIsRetried executes a leg's transaction, in a block the
// test applies itself, after two other transactions of the same sender took
// its nonce and the next: the receipt reports a bad nonce, and the mover
// resyncs the client's counter (one behind the account now), rebuilds the
// transaction and completes the move. (A desync inside the pool yields no
// receipt: a stale nonce is evicted, a gap waits.)
func TestBadNonceReceiptIsRetried(t *testing.T) {
	for _, leg := range []struct {
		name  string
		chain hashing.ChainID
		stage Stage
		tx    func(*Entry) *types.Transaction
	}{
		{"move1", 1, StageMove1Submitted, func(e *Entry) *types.Transaction { return e.Move1 }},
		{"move2", 2, StageMove2Submitted, func(e *Entry) *types.Transaction { return e.Move2 }},
	} {
		t.Run(leg.name, func(t *testing.T) {
			r := newMoverRig(t)
			c := r.src
			if leg.chain == 2 {
				c = r.dst
			}
			r.paused[leg.chain] = true
			if !r.runUntil(func() bool { return r.stage() == leg.stage && c.PendingTxs() == 1 }, time.Minute) {
				t.Fatalf("%s never reached the pool, at %v", leg.name, r.stage())
			}
			e, _ := r.mover.Journal().Entry(r.contract)
			sent := leg.tx(e)
			if err := sent.WaitSig(); err != nil { // a block holds signed transactions only
				t.Fatal(err)
			}
			var block []*types.Transaction
			for i := uint64(0); i < 2; i++ {
				taker := &types.Transaction{
					ChainID: leg.chain, Nonce: sent.Nonce + i, Kind: types.TxCall,
					To: hashing.AddressFromBytes([]byte{0xee}), Value: u256.One(),
					GasLimit: DefaultGasLimit, GasPrice: DefaultGasPrice,
				}
				if err := taker.Sign(r.kp); err != nil {
					t.Fatal(err)
				}
				block = append(block, taker)
			}
			_, recs := c.ApplyBlock(append(block, sent), r.sched.NowUnix(), chain.ProposerAddress(leg.chain, 0))
			if !badNonce(recs[2].Err) {
				t.Fatalf("%s receipt %q, want a bad nonce", leg.name, recs[2].Err)
			}
			r.paused[leg.chain] = false
			r.requireMoved(t)
			if got := r.counters.Get("relay." + leg.name + "_retries"); got != 1 {
				t.Fatalf("%s_retries = %d, want 1", leg.name, got)
			}
		})
	}
}

// TestRecoverFromPendingCompletesMove restarts, through the journal's bytes,
// a move that was accepted but whose Move1 was never submitted: Recover
// submits Move1 and the move completes.
func TestRecoverFromPendingCompletesMove(t *testing.T) {
	r := newIdleRig(t)
	j := NewJournal()
	j.put(&Entry{
		Contract:    r.contract,
		MoveToInput: core.MoveToInput(2),
		Result:      &MoveResult{Contract: r.contract},
	})
	journal, err := DecodeJournal(j.Encode())
	if err != nil {
		t.Fatal(err)
	}
	r.mover = NewMover(r.sched, r.src, r.dst, journal, r.counters)
	if err := r.mover.Recover(r.cl); err != nil {
		t.Fatal(err)
	}
	if !r.runUntil(func() bool { return r.stage() >= StageDone }, 10*time.Minute) {
		t.Fatalf("recovered move did not finish, at %v", r.stage())
	}
	if e, _ := journal.Entry(r.contract); e.Stage != StageDone {
		t.Fatalf("journal stage = %v (%v), want done", e.Stage, e.Result.Err)
	}
	if r.src.StateDB().GetLocation(r.contract) != 2 || r.dst.StateDB().GetLocation(r.contract) != 2 {
		t.Fatal("contract must be live on chain 2 only")
	}
	if got := r.counters.Get("relay.recoveries"); got != 1 {
		t.Fatalf("recoveries = %d, want 1", got)
	}
}

// TestReplayedMove2FailsMove lets another client's Move2 of the same payload
// commit in the block ahead of the relayer's: the relayer's Move2 then fails
// with ErrReplay, which no retry can cure, and the move ends with a move2
// error.
func TestReplayedMove2FailsMove(t *testing.T) {
	r := newMoverRig(t)
	r.paused[2] = true
	if !r.runUntil(func() bool { return r.stage() == StageMove2Submitted && r.dst.PendingTxs() == 1 }, time.Minute) {
		t.Fatalf("Move2 never reached the pool, at %v", r.stage())
	}
	e, _ := r.mover.Journal().Entry(r.contract)
	if err := e.Move2.WaitSig(); err != nil { // a block holds signed transactions only
		t.Fatal(err)
	}
	replay := &types.Transaction{
		ChainID: 2, Kind: types.TxMove2, Move2: e.Payload,
		GasLimit: DefaultGasLimit, GasPrice: DefaultGasPrice,
	}
	if err := replay.Sign(r.other); err != nil {
		t.Fatal(err)
	}
	_, recs := r.dst.ApplyBlock([]*types.Transaction{replay, e.Move2}, r.sched.NowUnix(), chain.ProposerAddress(2, 0))
	if !recs[0].Succeeded() || !strings.Contains(recs[1].Err, core.ErrReplay.Error()) {
		t.Fatalf("receipts %q, %q; want the replay to succeed and the relayer's Move2 to fail with %v",
			recs[0].Err, recs[1].Err, core.ErrReplay)
	}
	r.paused[2] = false
	res := r.finish(t)
	if res.Err == nil || !strings.HasPrefix(res.Err.Error(), "move2: ") || !strings.Contains(res.Err.Error(), core.ErrReplay.Error()) {
		t.Fatalf("move ended with %v, want a move2 error naming %v", res.Err, core.ErrReplay)
	}
	if r.stage() != StageFailed {
		t.Fatalf("journal stage = %v, want failed", r.stage())
	}
	if got := r.counters.Get("relay.moves_failed"); got != 1 {
		t.Fatalf("moves_failed = %d, want 1", got)
	}
	if got := r.counters.Get("relay.move2_retries"); got != 0 {
		t.Fatalf("move2_retries = %d, want 0", got)
	}
}

// TestEarlyMove2IsRetried hands the driver a "ready" poll answer that the
// target's light client does not back — the race transientMove2 describes
// — while the rig withholds the source's headers: once before the target
// knows the proof height at all (ErrNoHeader), once when it knows it but
// not p blocks deep (ErrNotConfirmed). The poll timer armed before the
// answer stands down. The failed receipt is transient: the move retries
// once, waits for the real confirmation and completes, and the retried
// Move2, computed at apply, commits with the gas, storage root and move
// nonce of an undisturbed move's first attempt.
func TestEarlyMove2IsRetried(t *testing.T) {
	for _, c := range []struct {
		name  string
		want  error
		known bool // the target holds the proof height's header
	}{{"no header", core.ErrNoHeader, false}, {"not confirmed", core.ErrNotConfirmed, true}} {
		t.Run(c.name, func(t *testing.T) {
			r := newIdleRig(t)
			r.withhold = !c.known
			r.mover = NewMover(r.sched, r.src, r.dst, NewJournal(), r.counters)
			before := r.src.StateDB().GetMoveNonce(r.contract)
			r.mover.Move(r.cl, r.contract, core.MoveToInput(2), func(res *MoveResult) { r.result = res })
			if !r.runUntil(func() bool { return r.stage() == StageWaitConfirm }, time.Minute) {
				t.Fatalf("move did not reach the confirmation wait, at %v", r.stage())
			}
			e, _ := r.mover.Journal().Entry(r.contract)
			height := e.Payload.SourceHeight
			if c.known && !r.runUntil(func() bool { return r.dst.Headers().Head(1) >= height }, time.Minute) {
				t.Fatal("the proof height never reached the target")
			}
			r.withhold = true
			if r.dst.Headers().ConfirmedAt(1, height) {
				t.Fatal("the proof height is confirmed already")
			}
			r.mover.handle(r.cl, e, event{kind: evPoll, ready: true})
			if r.stage() != StageMove2Submitted {
				t.Fatalf("a ready answer left the move at %v", r.stage())
			}
			// The poll timer armed before the answer is stale now: it fires
			// and stands down, so Move2 goes out once.
			r.paused[2] = true
			r.sched.RunUntil(r.sched.Now() + pollInterval + 10*time.Millisecond)
			r.paused[2] = false
			if got := r.toDst.Stats().Delivered; got != 1 {
				t.Fatalf("%d Move2 submissions reached the target, want 1", got)
			}
			var rec *types.Receipt
			r.dst.NotifyTx(e.Move2.ID(), func(got *types.Receipt) { rec = got })
			if !r.runUntil(func() bool { return rec != nil }, time.Minute) {
				t.Fatal("the early Move2 never committed")
			}
			if !strings.Contains(rec.Err, c.want.Error()) || !transientMove2(rec.Err) {
				t.Fatalf("early Move2 receipt %q, want a transient %v", rec.Err, c.want)
			}
			if r.stage() != StageWaitConfirm || r.counters.Get("relay.move2_retries") != 1 {
				t.Fatalf("after the receipt: at %v, move2_retries %d; want wait-confirm, 1",
					r.stage(), r.counters.Get("relay.move2_retries"))
			}
			r.withhold = false
			r.requireMoved(t)
			if got := r.counters.Get("relay.move2_retries"); got != 1 {
				t.Fatalf("move2_retries = %d, want 1", got)
			}
			if got := r.dst.StateDB().GetMoveNonce(r.contract); got != before+1 {
				t.Fatalf("move nonce %d after the move, want %d", got, before+1)
			}
			first := newMoverRig(t)
			first.requireMoved(t)
			retried, _ := r.dst.StateDB().GetAccount(r.contract)
			undisturbed, _ := first.dst.StateDB().GetAccount(r.contract)
			if r.result.Move2Gas != first.result.Move2Gas || retried.StorageRoot != undisturbed.StorageRoot ||
				retried.MoveNonce != undisturbed.MoveNonce {
				t.Fatalf("retried Move2: gas %d, storage root %s, move nonce %d; a first attempt: %d, %s, %d",
					r.result.Move2Gas, retried.StorageRoot, retried.MoveNonce,
					first.result.Move2Gas, undisturbed.StorageRoot, undisturbed.MoveNonce)
			}
		})
	}
}

// TestBackoffCapsAtRetryMax pins the resubmission delay: retryBase doubles
// per attempt and stops at retryMax, however many attempts there were.
func TestBackoffCapsAtRetryMax(t *testing.T) {
	for _, c := range []struct {
		attempt int
		want    time.Duration
	}{
		{attempt: 1, want: 2 * time.Second},
		{attempt: 3, want: 8 * time.Second},
		{attempt: 5, want: 32 * time.Second},
		{attempt: 6, want: time.Minute},
		{attempt: 1000, want: time.Minute},
	} {
		if got := backoff(c.attempt); got != c.want {
			t.Errorf("attempt %d: backoff %v, want %v", c.attempt, got, c.want)
		}
	}
}

// TestStageString names every stage the journal can hold, and an unknown
// one by its number.
func TestStageString(t *testing.T) {
	for stage, want := range map[Stage]string{
		StagePending:        "pending",
		StageMove1Submitted: "move1-submitted",
		StageWaitConfirm:    "wait-confirm",
		StageMove2Submitted: "move2-submitted",
		StageDone:           "done",
		StageFailed:         "failed",
		Stage(42):           "stage(42)",
	} {
		if got := stage.String(); got != want {
			t.Errorf("Stage(%d).String() = %q, want %q", uint8(stage), got, want)
		}
	}
}

// TestCompleteUnlockedContractFails: Complete on a contract whose Move1
// never ran has no proof to build, so the move fails at once on the
// "build proof" step with core.ErrNotLocked, and nothing is announced to
// the target or submitted.
func TestCompleteUnlockedContractFails(t *testing.T) {
	r := newIdleRig(t)
	r.mover = NewMover(r.sched, r.src, r.dst, NewJournal(), r.counters)
	r.mover.Complete(r.cl, r.contract, func(res *MoveResult) { r.result = res })
	if r.result == nil {
		t.Fatal("Complete on an unlocked contract did not finish synchronously")
	}
	if err := r.result.Err; !errors.Is(err, core.ErrNotLocked) || !strings.HasPrefix(err.Error(), "build proof: ") {
		t.Fatalf("move ended with %v, want build proof: %v", err, core.ErrNotLocked)
	}
	if r.stage() != StageFailed || r.counters.Get("relay.moves_failed") != 1 {
		t.Fatalf("journal stage %v, moves_failed %d; want failed, 1", r.stage(), r.counters.Get("relay.moves_failed"))
	}
	if e, _ := r.mover.Journal().Entry(r.contract); e.Payload != nil || e.Move2 != nil {
		t.Fatal("a failed proof build left a payload or a Move2 in the journal")
	}
}
