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
// the source's new header reaches the target's light client. The client's
// submissions reach the target over a link the test can cut. A second key,
// funded on both chains, lets a test complete the move as another client.
type moverRig struct {
	sched    *simclock.Scheduler
	src, dst *chain.Chain
	kp       *keys.KeyPair
	other    *keys.KeyPair
	toDst    *simnet.Link
	paused   map[hashing.ChainID]bool
	counters *metrics.Counters
	mover    *Mover
	contract hashing.Address
	result   *MoveResult
}

// newMoverRig starts a move of a one-slot movable contract from chain 1 to
// chain 2 under cfg.
func newMoverRig(t *testing.T, cfg MoverConfig) *moverRig {
	t.Helper()
	r, cl := newIdleRig(t)
	r.mover = NewMoverWith(r.sched, r.src, r.dst, cfg, nil, r.counters)
	r.mover.Move(cl, r.contract, core.MoveToInput(2), func(res *MoveResult) { r.result = res })
	return r
}

// newIdleRig builds the rig, with both chains ticking, and the owner's
// client; no move is started.
func newIdleRig(t *testing.T) (*moverRig, *Client) {
	t.Helper()
	sched := simclock.New()
	kp, other := keys.Deterministic(21), keys.Deterministic(22)
	chainCfg := func(id hashing.ChainID) chain.Config {
		return chain.Config{
			ChainID: id, TreeKind: trie.KindMPT, Schedule: evm.EthereumSchedule(),
			BlockGasLimit: 100_000_000, MaxBlockTxs: 100, ConfirmationDepth: 2, PoolLimit: 1000,
		}
	}
	fund := func(db *state.DB) {
		db.AddBalance(kp.Address(), u256.FromUint64(1<<50))
		db.AddBalance(other.Address(), u256.FromUint64(1<<50))
	}
	src, err := chain.New(chainCfg(1), core.NewHeaderStore(chainCfg(2).Params()), fund)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := chain.New(chainCfg(2), core.NewHeaderStore(chainCfg(1).Params()), fund)
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
			if err := dst.Headers().Update(1, []*types.Header{src.Head()}, src.Head().Height); err != nil {
				t.Error(err)
			}
		}
		if !r.paused[2] {
			dst.ApplyBlock(dst.ProposeBatch(), sched.NowUnix(), chain.ProposerAddress(2, 0))
		}
		sched.After(time.Second, tick)
	}
	sched.After(time.Second, tick)

	cl := NewClient(kp, map[hashing.ChainID]*simnet.Link{
		1: simnet.NewLink(sched, time.Millisecond, simnet.LinkFaults{}, 0),
		2: r.toDst,
	})
	return r, cl
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
	if !r.runUntil(func() bool { return r.result != nil }, 10*time.Minute) {
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

func rigConfig() MoverConfig {
	return MoverConfig{
		PollInterval:    500 * time.Millisecond,
		ConfirmDeadline: 5 * time.Minute,
		StageDeadline:   10 * time.Second,
		RetryBase:       2 * time.Second,
		RetryMax:        8 * time.Second,
		MaxAttempts:     3,
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
	cfg := rigConfig()
	r := newMoverRig(t, cfg)
	r.dropMove2(t)
	// Heal after the deadline fired, before the backoff resubmits.
	r.sched.RunUntil(r.sched.Now() + cfg.StageDeadline + cfg.RetryBase/2)
	r.toDst.SetCut(false)
	r.requireMoved(t)
	if got := r.counters.Get("relay.move2_retries"); got < 1 {
		t.Fatalf("move2_retries = %d, want at least 1", got)
	}
	if r.toDst.Stats().Dropped == 0 {
		t.Fatal("the cut link dropped nothing")
	}
}

// TestMove2RetryBudgetExhausted holds the drop past two stage deadlines
// with a budget of one resubmission: the move fails with ErrRetryBudget on
// the Move2 leg.
func TestMove2RetryBudgetExhausted(t *testing.T) {
	cfg := rigConfig()
	cfg.MaxAttempts = 1
	r := newMoverRig(t, cfg)
	r.dropMove2(t)
	res := r.finish(t)
	if !errors.Is(res.Err, ErrRetryBudget) || !strings.HasPrefix(res.Err.Error(), "move2") {
		t.Fatalf("move ended with %v, want a move2 %v", res.Err, ErrRetryBudget)
	}
	if r.stage() != StageFailed {
		t.Fatalf("journal stage = %v, want failed", r.stage())
	}
}

// TestAbandonedMoveCompletedByAnotherClient: a relayer with a budget of one
// resubmission gives up on a dropped Move2 after Move1 committed. The
// contract is then locked on the source and not yet live on the target. A
// fresh Mover, driven by a client other than the owner, completes the move
// from the committed Move1 alone (§III-B: anyone may complete a move).
func TestAbandonedMoveCompletedByAnotherClient(t *testing.T) {
	cfg := rigConfig()
	cfg.MaxAttempts = 1
	r := newMoverRig(t, cfg)
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
	NewMoverWith(r.sched, r.src, r.dst, rigConfig(), nil, nil).
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
// test applies itself, after another transaction of the same sender took
// its nonce: the receipt reports a bad nonce, and the mover resyncs,
// rebuilds the transaction and completes the move. (A desync inside the
// pool yields no receipt: a stale nonce is evicted, a gap waits.)
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
			r := newMoverRig(t, rigConfig())
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
			taker := &types.Transaction{
				ChainID: leg.chain, Nonce: sent.Nonce, Kind: types.TxCall,
				To: hashing.AddressFromBytes([]byte{0xee}), Value: u256.One(),
				GasLimit: DefaultGasLimit, GasPrice: DefaultGasPrice,
			}
			if err := taker.Sign(r.kp); err != nil {
				t.Fatal(err)
			}
			_, recs := c.ApplyBlock([]*types.Transaction{taker, sent}, r.sched.NowUnix(),
				chain.ProposerAddress(leg.chain, 0))
			if !badNonce(recs[1].Err) {
				t.Fatalf("%s receipt %q, want a bad nonce", leg.name, recs[1].Err)
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
	r, cl := newIdleRig(t)
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
	r.mover = NewMoverWith(r.sched, r.src, r.dst, rigConfig(), journal, r.counters)
	if err := r.mover.Recover(cl); err != nil {
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
	r := newMoverRig(t, rigConfig())
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

// TestBackoffCapsAtRetryMax pins the resubmission delay: RetryBase doubles
// per attempt, stops at RetryMax (also when RetryBase alone exceeds it),
// and a RetryBase ≤ 0 starts from one second.
func TestBackoffCapsAtRetryMax(t *testing.T) {
	for _, c := range []struct {
		base, max time.Duration
		attempt   int
		want      time.Duration
	}{
		{base: 10 * time.Second, max: 4 * time.Second, attempt: 1, want: 4 * time.Second},
		{base: 2 * time.Second, max: time.Minute, attempt: 1, want: 2 * time.Second},
		{base: 2 * time.Second, max: time.Minute, attempt: 3, want: 8 * time.Second},
		{base: 2 * time.Second, max: time.Minute, attempt: 5, want: 32 * time.Second},
		{base: 2 * time.Second, max: time.Minute, attempt: 6, want: time.Minute},
		{base: 2 * time.Second, max: time.Minute, attempt: 1000, want: time.Minute},
		{base: 0, max: time.Minute, attempt: 1, want: time.Second},
		{base: -time.Second, max: time.Minute, attempt: 4, want: 8 * time.Second},
		{base: 0, max: 0, attempt: 3, want: 4 * time.Second},
	} {
		m := &Mover{cfg: MoverConfig{RetryBase: c.base, RetryMax: c.max}}
		if got := m.backoff(c.attempt); got != c.want {
			t.Errorf("RetryBase %v, RetryMax %v, attempt %d: backoff %v, want %v",
				c.base, c.max, c.attempt, got, c.want)
		}
	}
}
