package relay

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"scmove/internal/chain"
	"scmove/internal/core"
	"scmove/internal/hashing"
	"scmove/internal/metrics"
	"scmove/internal/simclock"
	"scmove/internal/types"
	"scmove/internal/u256"
)

// Errors distinguishing why a move failed.
var (
	// ErrConfirmTimeout reports that the proof's source height did not reach
	// the confirmation depth on the target's light client in time.
	ErrConfirmTimeout = errors.New("relay: confirmation deadline exceeded")
	// ErrRetryBudget reports that a stage exhausted its resubmission budget.
	ErrRetryBudget = errors.New("relay: retry budget exhausted")
)

// MoverConfig tunes the move state machine's deadlines and retry policy.
type MoverConfig struct {
	// PollInterval is how often the relayer re-checks the target light
	// client for confirmation depth.
	PollInterval time.Duration
	// ConfirmDeadline bounds the total wait for the proof height to become
	// p blocks deep on the target; exceeding it fails the move with
	// ErrConfirmTimeout. Zero means no deadline.
	ConfirmDeadline time.Duration
	// StageDeadline bounds the wait for a submitted transaction (Move1 or
	// Move2) to commit before it is resubmitted.
	StageDeadline time.Duration
	// RetryBase is the initial backoff before a resubmission; it doubles
	// per attempt up to RetryMax.
	RetryBase time.Duration
	// RetryMax caps the exponential backoff.
	RetryMax time.Duration
	// MaxAttempts is the per-stage resubmission budget.
	MaxAttempts int
}

// DefaultMoverConfig returns deadlines generous enough for the paper's
// slowest chain (15 s expected PoW blocks, p = 6) with a retry budget that
// rides out double-digit loss rates.
func DefaultMoverConfig() MoverConfig {
	return MoverConfig{
		PollInterval:    500 * time.Millisecond,
		ConfirmDeadline: 15 * time.Minute,
		StageDeadline:   90 * time.Second,
		RetryBase:       2 * time.Second,
		RetryMax:        time.Minute,
		MaxAttempts:     10,
	}
}

// Stage is the durable position of a move in the relayer state machine.
type Stage uint8

// Move stages in order.
const (
	// StagePending: accepted, Move1 not yet submitted.
	StagePending Stage = iota
	// StageMove1Submitted: Move1 signed and on the wire, awaiting receipt.
	StageMove1Submitted
	// StageWaitConfirm: proof built, waiting for p-deep confirmation.
	StageWaitConfirm
	// StageMove2Submitted: Move2 signed and on the wire, awaiting receipt.
	StageMove2Submitted
	// StageDone: Move2 committed successfully.
	StageDone
	// StageFailed: terminal failure, Result.Err is set.
	StageFailed
)

// String names the stage.
func (s Stage) String() string {
	switch s {
	case StagePending:
		return "pending"
	case StageMove1Submitted:
		return "move1-submitted"
	case StageWaitConfirm:
		return "wait-confirm"
	case StageMove2Submitted:
		return "move2-submitted"
	case StageDone:
		return "done"
	case StageFailed:
		return "failed"
	}
	return fmt.Sprintf("stage(%d)", uint8(s))
}

// Entry is one journaled move: everything a restarted Mover needs to resume
// it from the last durable stage — the signed transactions for idempotent
// resubmission, the proof payload, and the stage marker.
type Entry struct {
	Contract    hashing.Address
	MoveToInput []byte // nil for Complete-style moves (Move1 ran elsewhere)
	Stage       Stage
	Move1       *types.Transaction
	Move2       *types.Transaction
	Payload     *types.Move2Payload
	// Attempts counts resubmissions within the current stage.
	Attempts  int
	Result    *MoveResult
	done      func(*MoveResult)
	confirmAt time.Duration // when the confirmation wait started
	// seq invalidates outstanding timers and receipt watchers whenever the
	// entry transitions; a crashed Mover's stale callbacks see a newer seq
	// and stand down.
	seq uint64
}

// InFlight reports whether the move is neither done nor failed.
func (e *Entry) InFlight() bool { return e.Stage != StageDone && e.Stage != StageFailed }

// Journal records every move a Mover has accepted, keyed by contract. It is
// the relayer's durable state: handing the same Journal to a new Mover
// after a crash lets Recover resume every in-flight move from its last
// recorded stage instead of losing it.
type Journal struct {
	entries map[hashing.Address]*Entry
	order   []hashing.Address
}

// NewJournal returns an empty journal.
func NewJournal() *Journal {
	return &Journal{entries: make(map[hashing.Address]*Entry)}
}

// Entry returns the journaled move of a contract.
func (j *Journal) Entry(contract hashing.Address) (*Entry, bool) {
	e, ok := j.entries[contract]
	return e, ok
}

// InFlight returns every move that is neither done nor failed, in
// acceptance order.
func (j *Journal) InFlight() []*Entry {
	var out []*Entry
	for _, c := range j.order {
		if e := j.entries[c]; e.InFlight() {
			out = append(out, e)
		}
	}
	return out
}

// put records a (new) move, replacing any finished entry for the contract.
func (j *Journal) put(e *Entry) {
	if _, ok := j.entries[e.Contract]; !ok {
		j.order = append(j.order, e.Contract)
	}
	j.entries[e.Contract] = e
}

// Mover drives moves from a source to a target chain as a crash-recoverable
// state machine: every stage has a deadline, submissions retry with
// exponential backoff against a budget, resubmission is idempotent (the
// move nonce makes a duplicated Move2 a no-op on the target), and the
// journal lets a restarted Mover resume in-flight moves.
type Mover struct {
	sched    *simclock.Scheduler
	src      *chain.Chain
	dst      *chain.Chain
	cfg      MoverConfig
	journal  *Journal
	counters *metrics.Counters
	reg      *metrics.Registry // optional; nil records nothing
	alive    bool
}

// NewMoverWith returns a mover with explicit tuning, journal, and counters.
// Passing a crashed Mover's journal and calling Recover resumes its
// in-flight moves.
func NewMoverWith(sched *simclock.Scheduler, src, dst *chain.Chain,
	cfg MoverConfig, journal *Journal, counters *metrics.Counters) *Mover {
	if journal == nil {
		journal = NewJournal()
	}
	if counters == nil {
		counters = metrics.NewCounters()
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 500 * time.Millisecond
	}
	return &Mover{
		sched: sched, src: src, dst: dst,
		cfg: cfg, journal: journal, counters: counters,
		alive: true,
	}
}

// Journal returns the mover's journal (hand it to a replacement Mover after
// Crash to resume).
func (m *Mover) Journal() *Journal { return m.journal }

// SetRegistry attaches an observability registry: the mover then emits one
// span per protocol stage (move1.commit, p.wait, move2.commit, move.total)
// into its histograms, plus point events for submissions, retries,
// recoveries, and failures when tracing is enabled. A nil registry (the
// default) records nothing.
func (m *Mover) SetRegistry(reg *metrics.Registry) { m.reg = reg }

// event traces a point event for a move, tagging it with the contract.
// The attr formatting is skipped entirely unless tracing is on.
func (m *Mover) event(name string, e *Entry, attrs ...metrics.Attr) {
	if !m.reg.TraceEnabled() {
		return
	}
	attrs = append(attrs, metrics.A("contract", e.Contract.String()))
	m.reg.Event(name, m.sched.Now(), attrs...)
}

// stageAttrs tags a stage span with its move's contract (only when the
// span will actually be retained).
func (m *Mover) stageAttrs(e *Entry) []metrics.Attr {
	if !m.reg.TraceEnabled() {
		return nil
	}
	return []metrics.Attr{metrics.A("contract", e.Contract.String())}
}

// Crash simulates a relayer crash: the Mover stops reacting to every
// pending timer and receipt notification. The journal survives; a new
// Mover over the same journal resumes via Recover.
func (m *Mover) Crash() { m.alive = false }

// Move runs the full move of contract via the client: it submits the Move1
// call with the given moveTo calldata, builds the Merkle proof the moment
// the Move1 block commits, waits until the target's light client holds that
// height p blocks deep, submits Move2, and invokes done exactly once —
// retrying lost submissions and failing with a distinct error on deadline
// or budget exhaustion.
func (m *Mover) Move(cl *Client, contract hashing.Address, moveToInput []byte, done func(*MoveResult)) {
	m.start(cl, &Entry{
		Contract:    contract,
		MoveToInput: moveToInput,
		Result:      &MoveResult{Contract: contract, StartedAt: m.sched.Now()},
		done:        done,
	})
}

// Complete finishes a move whose Move1 already executed (any client may do
// this, §III-B): it builds the proof against the current committed state,
// waits for the confirmation depth, and submits Move2. The TokenRelay flow
// uses it because Move1 runs inside the creation transaction (Fig. 3).
func (m *Mover) Complete(cl *Client, contract hashing.Address, done func(*MoveResult)) {
	now := m.sched.Now()
	m.start(cl, &Entry{
		Contract: contract,
		Result:   &MoveResult{Contract: contract, StartedAt: now, Move1At: now},
		done:     done,
	})
}

// start journals a pending move and takes its first step: Move1, or, for a
// Complete-style move (no moveTo calldata), the proof and the confirmation
// wait.
func (m *Mover) start(cl *Client, e *Entry) {
	m.journal.put(e)
	if e.MoveToInput == nil {
		m.startConfirm(cl, e)
		return
	}
	m.submitMove1(cl, e)
}

// Recover resumes every in-flight journaled move on this (restarted)
// Mover, re-entering the state machine at each entry's last durable stage.
// Submitted transactions are resubmitted (idempotently) in case they were
// lost while the previous Mover was down.
//
// The journal may have been deserialized from untrusted bytes, so every
// in-flight entry is validated against its recorded stage before anything
// resumes: a truncated or malformed entry returns a wrapped error naming
// the entry index and contract instead of panicking mid-replay, and no
// entry is resumed (recovery is all-or-nothing so a retry after repairing
// the journal cannot double-submit the entries that were valid).
func (m *Mover) Recover(cl *Client) error {
	inflight := m.journal.InFlight()
	for i, e := range inflight {
		if err := e.validate(); err != nil {
			return fmt.Errorf("%w: recover entry %d (contract %s): %w",
				ErrCorruptJournal, i, e.Contract, err)
		}
	}
	for _, e := range inflight {
		m.counters.Inc("relay.recoveries")
		m.event("relay.recover", e, metrics.A("stage", e.Stage.String()))
		switch e.Stage {
		case StagePending:
			m.start(cl, e)
		case StageMove1Submitted:
			m.submitMove1(cl, e)
		case StageWaitConfirm:
			// The confirmation deadline restarts: a recovering relayer has no
			// way to know how long the previous incarnation already waited.
			// The target may still hold the crashed incarnation's expectation
			// of this payload; ExpectMove2 then keeps that one.
			e.confirmAt = m.sched.Now()
			m.dst.ExpectMove2(e.Payload)
			m.pollConfirm(cl, e)
		case StageMove2Submitted:
			m.submitMove2(cl, e)
		}
	}
	return nil
}

// fail terminates a move with an error.
func (m *Mover) fail(e *Entry, stage string, err error) {
	e.seq++
	e.Stage = StageFailed
	e.Result.Err = fmt.Errorf("%s: %w", stage, err)
	m.counters.Inc("relay.moves_failed")
	m.event("move.failed", e, metrics.A("stage", stage))
	if e.done != nil {
		e.done(e.Result)
	}
}

// backoff returns the exponential delay before resubmission attempt n
// (1-based), capped at RetryMax. Doubling stops at the cap, so a large
// attempt count cannot overflow.
func (m *Mover) backoff(attempt int) time.Duration {
	d := m.cfg.RetryBase
	if d <= 0 {
		d = time.Second
	}
	capped := m.cfg.RetryMax > 0
	for i := 1; i < attempt && (!capped || d < m.cfg.RetryMax); i++ {
		d *= 2
	}
	if capped && d > m.cfg.RetryMax {
		d = m.cfg.RetryMax
	}
	return d
}

// budget consumes one retry attempt, reporting whether any remain.
func (m *Mover) budget(e *Entry) bool {
	if m.cfg.MaxAttempts > 0 && e.Attempts >= m.cfg.MaxAttempts {
		return false
	}
	e.Attempts++
	return true
}

// after runs fn once the backoff for the current attempt has passed, if the
// mover is still alive and the move is still in stage.
func (m *Mover) after(e *Entry, stage Stage, fn func()) {
	m.sched.After(m.backoff(e.Attempts), func() {
		if m.alive && e.Stage == stage {
			fn()
		}
	})
}

// watch arms the receipt hook and the stage deadline of a submitted leg
// ("move1" on the source, "move2" on the target). Both stand down once the
// mover crashes or the move leaves the stage it is in now. A receipt goes to
// onReceipt. No receipt inside the deadline means the submission (or its
// receipt path) was lost: one attempt of the budget is spent and, after the
// backoff, resubmit sends the same signed transaction again — same nonce,
// same id, idempotent.
func (m *Mover) watch(e *Entry, c *chain.Chain, tx *types.Transaction, leg string,
	onReceipt func(*types.Receipt), resubmit func()) {
	stage := e.Stage
	e.seq++
	seq := e.seq
	live := func() bool {
		return m.alive && e.seq == seq && e.Stage == stage
	}
	c.NotifyTx(tx.ID(), func(rec *types.Receipt) {
		if live() {
			e.seq++
			onReceipt(rec)
		}
	})
	if m.cfg.StageDeadline <= 0 {
		return
	}
	m.sched.After(m.cfg.StageDeadline, func() {
		if !live() {
			return
		}
		if !m.budget(e) {
			m.fail(e, leg, fmt.Errorf("%w after %d attempts", ErrRetryBudget, e.Attempts))
			return
		}
		m.counters.Inc("relay." + leg + "_retries")
		m.event(leg+".retry", e, metrics.A("reason", "stage deadline"))
		e.seq++
		m.after(e, stage, resubmit)
	})
}

// submitMove1 signs (if needed) and submits the Move1 transaction, then
// watches for its receipt.
func (m *Mover) submitMove1(cl *Client, e *Entry) {
	if e.Move1 == nil {
		e.Move1 = cl.SignedCall(m.src, e.Contract, e.MoveToInput, u256.Zero())
		e.Result.Move1Tx = e.Move1.ID()
	}
	e.Stage = StageMove1Submitted
	cl.SubmitSigned(m.src, e.Move1)
	m.event("move1.submit", e, metrics.A("attempt", strconv.Itoa(e.Attempts+1)))
	m.watch(e, m.src, e.Move1, "move1",
		func(rec *types.Receipt) { m.move1Receipt(cl, e, rec) },
		func() { m.submitMove1(cl, e) })
}

// move1Receipt handles the receipt of Move1: on success the proof is built
// and the confirmation wait starts.
func (m *Mover) move1Receipt(cl *Client, e *Entry, rec *types.Receipt) {
	e.Result.Move1At = m.sched.Now()
	e.Result.Move1Gas = rec.GasUsed
	if !rec.Succeeded() {
		// A nonce failure is transient (the client desynced after a lost
		// submission): resync and rebuild. Everything else — a reverting
		// moveTo guard above all — is terminal.
		if badNonce(rec.Err) && m.budget(e) {
			m.counters.Inc("relay.move1_retries")
			m.event("move1.retry", e, metrics.A("reason", "bad nonce"))
			cl.NoteBadNonce(m.src.ChainID())
			e.Move1 = nil
			m.after(e, StageMove1Submitted, func() { m.submitMove1(cl, e) })
			return
		}
		m.fail(e, "move1", errors.New(rec.Err))
		return
	}
	m.reg.Span("move1.commit", e.Result.StartedAt, e.Result.Move1At, m.stageAttrs(e)...)
	m.startConfirm(cl, e)
}

// startConfirm builds the proof (once) and enters the confirmation wait.
func (m *Mover) startConfirm(cl *Client, e *Entry) {
	if e.Payload == nil {
		// Build the proof against the current committed state: the contract
		// is locked, so its record cannot change, and this head's root will
		// reach the target's light client within p blocks.
		proofHeight := m.src.Head().Height
		payload, err := core.BuildMoveProof(m.src.StateDB(), e.Contract, proofHeight)
		if err != nil {
			m.fail(e, "build proof", err)
			return
		}
		e.Payload = payload
		// The payload is final: the target's storage work can run while the
		// source's headers become p blocks deep.
		m.dst.ExpectMove2(payload)
	}
	e.Stage = StageWaitConfirm
	e.Attempts = 0
	e.confirmAt = m.sched.Now()
	m.pollConfirm(cl, e)
}

// pollConfirm polls the target light client until the proof's source height
// is p blocks deep, failing with ErrConfirmTimeout past the deadline.
func (m *Mover) pollConfirm(cl *Client, e *Entry) {
	e.seq++
	seq := e.seq
	if m.dst.Headers().ConfirmedAt(e.Payload.SourceChain, e.Payload.SourceHeight) {
		m.submitMove2(cl, e)
		return
	}
	if m.cfg.ConfirmDeadline > 0 && m.sched.Now()-e.confirmAt >= m.cfg.ConfirmDeadline {
		m.counters.Inc("relay.confirm_timeouts")
		m.fail(e, "confirm", ErrConfirmTimeout)
		return
	}
	m.counters.Inc("relay.confirm_retries")
	m.sched.After(m.cfg.PollInterval, func() {
		if m.alive && e.seq == seq && e.Stage == StageWaitConfirm {
			m.pollConfirm(cl, e)
		}
	})
}

// submitMove2 signs (if needed) and submits the Move2 transaction, then
// watches for its receipt.
func (m *Mover) submitMove2(cl *Client, e *Entry) {
	if e.Result.ProofReadyAt == 0 {
		e.Result.ProofReadyAt = m.sched.Now()
		// The p-block confirmation wait: Move1 inclusion (or move
		// acceptance, for Complete-style moves) to proof-confirmed depth.
		m.reg.Span("p.wait", e.Result.Move1At, e.Result.ProofReadyAt, m.stageAttrs(e)...)
	}
	if e.Move2 == nil {
		e.Move2 = cl.SignedMove2(m.dst, e.Payload)
		e.Result.Move2Tx = e.Move2.ID()
	}
	e.Stage = StageMove2Submitted
	cl.SubmitSigned(m.dst, e.Move2)
	m.event("move2.submit", e, metrics.A("attempt", strconv.Itoa(e.Attempts+1)))
	m.watch(e, m.dst, e.Move2, "move2",
		func(rec *types.Receipt) { m.move2Receipt(cl, e, rec) },
		func() { m.submitMove2(cl, e) })
}

// move2Receipt handles the receipt of Move2: success finishes the move; a
// transient failure rebuilds Move2 and re-enters the confirmation wait.
func (m *Mover) move2Receipt(cl *Client, e *Entry, rec *types.Receipt) {
	e.Result.Move2At = m.sched.Now()
	e.Result.Move2Gas = rec.GasUsed
	if !rec.Succeeded() {
		if transientMove2(rec.Err) && m.budget(e) {
			m.counters.Inc("relay.move2_retries")
			m.event("move2.retry", e, metrics.A("reason", rec.Err))
			if badNonce(rec.Err) {
				cl.NoteBadNonce(m.dst.ChainID())
			}
			// Rebuild with a fresh nonce and re-verify confirmation depth
			// before resubmitting. The failed attempt consumed the target's
			// preparation of the payload; start another.
			m.dst.ExpectMove2(e.Payload)
			e.Move2 = nil
			e.Stage = StageWaitConfirm
			e.confirmAt = m.sched.Now()
			m.after(e, StageWaitConfirm, func() { m.pollConfirm(cl, e) })
			return
		}
		m.fail(e, "move2", errors.New(rec.Err))
		return
	}
	e.Stage = StageDone
	m.counters.Inc("relay.moves_completed")
	m.reg.Span("move2.commit", e.Result.ProofReadyAt, e.Result.Move2At, m.stageAttrs(e)...)
	m.reg.Span("move.total", e.Result.StartedAt, e.Result.Move2At, m.stageAttrs(e)...)
	if e.done != nil {
		e.done(e.Result)
	}
}

// badNonce reports a receipt error of a transaction whose nonce the chain
// refused.
func badNonce(msg string) bool { return strings.Contains(msg, chain.ErrBadNonce.Error()) }

// transientMove2 reports receipt errors worth a retry: nonce desyncs and
// confirmation races (the depth check can regress only if our poll and the
// chain's header store briefly disagree). Receipts carry errors as text, so
// each is recognised by the text of the error value that produced it.
func transientMove2(msg string) bool {
	return badNonce(msg) ||
		strings.Contains(msg, core.ErrNotConfirmed.Error()) ||
		strings.Contains(msg, core.ErrNoHeader.Error())
}
