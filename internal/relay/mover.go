package relay

import (
	"errors"
	"fmt"
	"slices"
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

// The relayer's timings. They suit the paper's slowest chain (15 s expected
// PoW blocks, p = 6), and the retry budget rides out double-digit loss rates.
const (
	pollInterval    = 500 * time.Millisecond // how often a confirmation wait reads the target's light client
	confirmDeadline = 15 * time.Minute       // the longest confirmation wait, then ErrConfirmTimeout
	stageDeadline   = 90 * time.Second       // the wait for a submitted leg's receipt before resubmitting it
	retryBase       = 2 * time.Second        // the first backoff; it doubles per attempt up to retryMax
	retryMax        = time.Minute
	maxAttempts     = 10 // resubmissions per stage, then ErrRetryBudget
)

// Stage is the durable position of a move in the relayer state machine.
type Stage uint8

// Move stages in order.
const (
	// StagePending: accepted, Move1 not yet submitted (or refused for its
	// nonce, and to be signed anew).
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

var stageNames = [...]string{"pending", "move1-submitted", "wait-confirm", "move2-submitted", "done", "failed"}

// String names the stage.
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
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
	// seq counts the events the move has handled: a timer or receipt hook
	// armed before the latest one stands down (Mover.arm).
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
// journal lets a restarted Mover resume in-flight moves. Every decision is
// step's; the Mover only carries out its actions and turns receipts,
// timers, proofs and polls back into events.
type Mover struct {
	sched    *simclock.Scheduler
	src      *chain.Chain
	dst      *chain.Chain
	journal  *Journal
	counters *metrics.Counters
	reg      *metrics.Registry // optional; nil records nothing
	alive    bool
	// timers holds the timer records not armed. A record comes back as it
	// fires, so the list never holds more than were once armed together,
	// and a wait of minutes polls without allocating.
	timers []*timer
}

// NewMover returns a mover that journals into journal and counts into
// counters. Passing a crashed Mover's journal and calling Recover resumes
// its in-flight moves.
func NewMover(sched *simclock.Scheduler, src, dst *chain.Chain,
	journal *Journal, counters *metrics.Counters) *Mover {
	return &Mover{
		sched: sched, src: src, dst: dst,
		journal: journal, counters: counters,
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
	m.accept(cl, &Entry{
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
	m.accept(cl, &Entry{
		Contract: contract,
		Result:   &MoveResult{Contract: contract, StartedAt: now, Move1At: now},
		done:     done,
	})
}

// accept journals a new move and starts it.
func (m *Mover) accept(cl *Client, e *Entry) {
	m.journal.put(e)
	m.handle(cl, e, event{kind: evStart})
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
		m.handle(cl, e, event{kind: evRecover})
	}
	return nil
}

// handle delivers ev to e: it bumps e.seq, so that every timer and receipt
// hook armed before now stands down, runs step and carries out its actions
// in order. Building the proof and polling the target answer at once, with
// the next event; step lists them last.
func (m *Mover) handle(cl *Client, e *Entry, ev event) {
	e.seq++
	ev.now = m.sched.Now()
	for _, a := range step(e, ev) {
		switch a.do {
		case doSubmit:
			m.submit(cl, e, a.leg)
		case doRetry:
			m.counters.Inc("relay." + a.leg + "_retries")
			m.event(a.leg+".retry", e, metrics.A("reason", a.name))
			if badNonce(a.name) { // the client desynced after a lost submission
				cl.desynced[m.legChain(a.leg).ChainID()] = true
			}
			m.timer(cl, e, a.after)
		case doBuildProof:
			// Against the current committed state: the contract is locked, so
			// its record cannot change, and this head's root will reach the
			// target's light client within p blocks. Where the target holds a
			// copy of the contract, the payload is a delta against it. The
			// target starts the payload's preparation as it builds it, so its
			// storage work runs while the source's headers become p blocks
			// deep.
			payload, err := m.dst.BuildMove2(m.src.StateDB(), e.Contract, m.src.Head().Height)
			m.handle(cl, e, event{kind: evProof, payload: payload, err: err})
		case doFullPayload:
			payload, err := core.FullMove2(m.src.StateDB(), e.Payload)
			m.handle(cl, e, event{kind: evProof, payload: payload, err: err})
		case doPoll:
			ready := m.dst.Headers().ConfirmedAt(e.Payload.SourceChain, e.Payload.SourceHeight)
			m.handle(cl, e, event{kind: evPoll, ready: ready})
		case doTimer:
			m.timer(cl, e, a.after)
		case doCount:
			m.counters.Inc(a.name)
		case doSpan:
			var attrs []metrics.Attr // the contract, when the span is retained
			if m.reg.TraceEnabled() {
				attrs = []metrics.Attr{metrics.A("contract", e.Contract.String())}
			}
			m.reg.Span(a.name, a.from, a.to, attrs...)
		case doFinish:
			if e.Stage == StageFailed {
				m.counters.Inc("relay.moves_failed")
				m.event("move.failed", e, metrics.A("stage", a.name))
			} else {
				m.counters.Inc("relay.moves_completed")
			}
			if e.done != nil {
				e.done(e.Result)
			}
		}
	}
}

// hook delivers events to one move while it handles nothing else. Every
// timer and receipt goes through one (Mover.arm), so the hooks of a crashed
// mover, or of a stage the move has left, still fire but stand down.
type hook struct {
	m   *Mover
	cl  *Client
	e   *Entry
	seq uint64
}

// arm returns a hook on e as it is now: a value, which a timer record or a
// receipt hook's closure holds.
func (m *Mover) arm(cl *Client, e *Entry) hook { return hook{m, cl, e, e.seq} }

// deliver hands ev to the move if the mover is alive and the move has
// handled no event since the hook was armed.
func (h hook) deliver(ev event) {
	if h.m.alive && h.e.seq == h.seq {
		h.m.handle(h.cl, h.e, ev)
	}
}

// timer is an armed backoff or poll timer. Its run func is bound once,
// when the record is allocated, so arming it costs no closure.
type timer struct {
	h   hook
	run func()
}

// timer delivers evTimer to e after d.
func (m *Mover) timer(cl *Client, e *Entry, d time.Duration) {
	var t *timer
	if k := len(m.timers); k > 0 {
		t = m.timers[k-1]
		m.timers = m.timers[:k-1]
	} else {
		t = new(timer)
		t.run = t.fire
	}
	t.h = m.arm(cl, e)
	m.sched.After(d, t.run)
}

// fire puts the record back, then delivers evTimer through its hook.
func (t *timer) fire() {
	h := t.h
	t.h = hook{}
	h.m.timers = append(h.m.timers, t)
	h.deliver(event{kind: evTimer})
}

// legChain is the chain a leg ("move1" or "move2") is submitted to.
func (m *Mover) legChain(leg string) *chain.Chain {
	if leg == "move1" {
		return m.src
	}
	return m.dst
}

// submit sends a leg's transaction, signing it first if there is none, and
// arms its receipt hook and stage deadline.
func (m *Mover) submit(cl *Client, e *Entry, leg string) {
	switch {
	case leg == "move1" && e.Move1 == nil:
		e.Move1 = cl.SignedCall(m.src, e.Contract, e.MoveToInput, u256.Zero())
		e.Result.Move1Tx = e.Move1.ID()
	case leg == "move2" && e.Move2 == nil:
		e.Move2 = cl.SignedMove2(m.dst, e.Payload)
		e.Result.Move2Tx = e.Move2.ID()
	}
	c := m.legChain(leg)
	tx := e.Move1
	if leg == "move2" {
		tx = e.Move2
	}
	cl.SubmitSigned(c, tx)
	m.event(leg+".submit", e, metrics.A("attempt", strconv.Itoa(e.Attempts+1)))
	h := m.arm(cl, e)
	c.NotifyTx(tx.ID(), func(rec *types.Receipt) { h.deliver(event{kind: evReceipt, rec: rec}) })
	m.sched.After(stageDeadline, func() { h.deliver(event{kind: evDeadline}) })
}

// eventKind names what happened to a move.
type eventKind uint8

const (
	evStart    eventKind = iota // Move or Complete accepted it
	evRecover                   // a restarted Mover resumes it
	evReceipt                   // the submitted leg's receipt arrived
	evDeadline                  // the submitted leg's stage deadline passed
	evTimer                     // a backoff or the poll interval passed
	evProof                     // the proof or the full payload was built (payload) or not (err)
	evPoll                      // the target's light client answered (ready)
)

// event is one input to step.
type event struct {
	kind    eventKind
	now     time.Duration // the time of delivery
	rec     *types.Receipt
	payload *types.Move2Payload
	err     error
	ready   bool // the proof height is p blocks deep on the target
}

// actionKind names one effect step asks of the driver.
type actionKind uint8

const (
	doSubmit      actionKind = iota // sign the leg's transaction if there is none, send it, arm receipt and deadline
	doRetry                         // count and trace the leg's retry (name: why; a bad nonce resyncs the client), back off
	doBuildProof                    // build the proof, a delta where the target holds a copy (Chain.BuildMove2); answered by evProof
	doFullPayload                   // rebuild the delta payload in full on its proof (core.FullMove2); answered by evProof
	doPoll                          // ask the target's light client; answered by evPoll
	doTimer                         // arm evTimer after the delay
	doCount                         // increment the named counter
	doSpan                          // record the named span
	doFinish                        // count and report the move's end (name: the step that failed)
)

// action is one effect of a step.
type action struct {
	do       actionKind
	leg      string // "move1" or "move2"
	name     string
	after    time.Duration
	from, to time.Duration
}

// The confirmation wait's rows return these shared lists, which
// Mover.handle only reads: a wait of minutes polls hundreds of times per
// move.
var (
	pollNow   = []action{{do: doPoll}}
	pollLater = []action{{do: doCount, name: "relay.confirm_retries"}, {do: doTimer, after: pollInterval}}
)

// step is the relayer's transition function: it moves e on by one event and
// returns, in order, what the driver is to do. It reads no clock, chain or
// RNG. Each case is a row of the (stage × event) table; a pair with no row
// — a stale or out-of-order event — changes nothing and asks for nothing,
// so Done and Failed absorb every event.
func step(e *Entry, ev event) []action {
	at := func(s Stage, kinds ...eventKind) bool { return e.Stage == s && slices.Contains(kinds, ev.kind) }
	leg := "move1"
	if e.Stage == StageMove2Submitted {
		leg = "move2"
	}
	switch {
	case at(StagePending, evStart, evRecover, evTimer) && e.MoveToInput == nil: // Complete-style
		return confirm(e, ev.now)
	case at(StagePending, evStart, evRecover, evTimer), at(StageMove1Submitted, evRecover, evTimer):
		e.Stage = StageMove1Submitted
		return []action{{do: doSubmit, leg: "move1"}}
	case at(StagePending, evProof), at(StageMove1Submitted, evProof):
		if ev.err != nil {
			return fail(e, "build proof", ev.err)
		}
		e.Payload = ev.payload
		return confirm(e, ev.now)
	case at(StageMove1Submitted, evDeadline), at(StageMove2Submitted, evDeadline):
		// The submission (or its receipt path) was lost. After the backoff
		// the same signed transaction goes out again: same nonce, same id,
		// idempotent.
		if e.Attempts >= maxAttempts {
			return fail(e, leg, fmt.Errorf("%w after %d attempts", ErrRetryBudget, e.Attempts))
		}
		return []action{retry(e, leg, "stage deadline")}
	case at(StageMove1Submitted, evReceipt):
		e.Result.Move1At = ev.now
		e.Result.Move1Gas = ev.rec.GasUsed
		if ev.rec.Succeeded() {
			span := action{do: doSpan, name: "move1.commit", from: e.Result.StartedAt, to: ev.now}
			return append([]action{span}, confirm(e, ev.now)...)
		}
		// A nonce failure is transient (the client desynced after a lost
		// submission): the signed Move1 is dead, so the move is pending
		// again, to be signed anew after the resync. Everything else — a
		// reverting moveTo guard above all — is terminal.
		if badNonce(ev.rec.Err) && e.Attempts < maxAttempts {
			e.Stage = StagePending
			e.Move1 = nil
			return []action{retry(e, leg, "bad nonce")}
		}
		return fail(e, leg, errors.New(ev.rec.Err))
	case at(StageWaitConfirm, evRecover):
		// The confirmation deadline restarts: a recovering relayer has no
		// way to know how long the previous incarnation already waited.
		// The target may still hold the crashed incarnation's preparation
		// of this payload; the Move2 takes it if no build replaced it.
		await(e, ev.now)
		return pollNow
	case at(StageWaitConfirm, evTimer):
		return pollNow
	case at(StageWaitConfirm, evPoll) && ev.ready, at(StageMove2Submitted, evRecover, evTimer):
		var acts []action
		if e.Result.ProofReadyAt == 0 {
			// The p-block confirmation wait: Move1 inclusion (or move
			// acceptance, for Complete-style moves) to proof-confirmed depth.
			e.Result.ProofReadyAt = ev.now
			acts = append(acts, action{do: doSpan, name: "p.wait", from: e.Result.Move1At, to: ev.now})
		}
		e.Stage = StageMove2Submitted
		return append(acts, action{do: doSubmit, leg: "move2"})
	case at(StageWaitConfirm, evPoll) && ev.now-e.confirmAt >= confirmDeadline:
		return append([]action{{do: doCount, name: "relay.confirm_timeouts"}},
			fail(e, "confirm", ErrConfirmTimeout)...)
	case at(StageWaitConfirm, evPoll):
		return pollLater
	case at(StageMove2Submitted, evReceipt):
		e.Result.Move2At = ev.now
		e.Result.Move2Gas = ev.rec.GasUsed
		if ev.rec.Succeeded() {
			e.Stage = StageDone
			return []action{
				{do: doSpan, name: "move2.commit", from: e.Result.ProofReadyAt, to: ev.now},
				{do: doSpan, name: "move.total", from: e.Result.StartedAt, to: ev.now},
				{do: doFinish},
			}
		}
		if staleBase(ev.rec.Err) && e.Payload.IsDelta() {
			// The target no longer holds the copy the delta was computed
			// against. The proof still stands; send the full payload.
			return []action{{do: doFullPayload}}
		}
		if transientMove2(ev.rec.Err) && e.Attempts < maxAttempts {
			// Rebuild with a fresh nonce and re-check the confirmation depth
			// before resubmitting. The failed attempt consumed the target's
			// preparation of the payload; the retry computes it at apply.
			e.Move2 = nil
			await(e, ev.now)
			return []action{retry(e, leg, ev.rec.Err)}
		}
		return fail(e, leg, errors.New(ev.rec.Err))
	case at(StageMove2Submitted, evProof):
		if ev.err != nil {
			return fail(e, "build proof", ev.err)
		}
		// The full payload replaces the refused delta: a new Move2, sent
		// after the first backoff and computed at apply. It spends no
		// attempt: a full payload has no base to be refused for.
		e.Payload, e.Move2 = ev.payload, nil
		await(e, ev.now)
		return []action{{do: doCount, name: "relay.full_fallbacks"}, {do: doTimer, after: retryBase}}
	}
	return nil
}

// confirm enters the confirmation wait, asking for the proof first if
// there is none.
func confirm(e *Entry, now time.Duration) []action {
	if e.Payload == nil {
		return []action{{do: doBuildProof}}
	}
	e.Attempts = 0
	await(e, now)
	return pollNow
}

// await enters the confirmation wait, whose deadline runs from now.
func await(e *Entry, now time.Duration) {
	e.Stage = StageWaitConfirm
	e.confirmAt = now
}

// retry spends one attempt of e's budget on a retry of leg.
func retry(e *Entry, leg, reason string) action {
	e.Attempts++
	return action{do: doRetry, leg: leg, name: reason, after: backoff(e.Attempts)}
}

// backoff returns the delay before resubmission attempt n (1-based):
// retryBase doubling per attempt, capped at retryMax. Doubling stops at the
// cap, so a large attempt count cannot overflow.
func backoff(attempt int) time.Duration {
	d := retryBase
	for i := 1; i < attempt && d < retryMax; i++ {
		d *= 2
	}
	return min(d, retryMax)
}

// fail terminates a move with an error from the named step.
func fail(e *Entry, what string, err error) []action {
	e.Stage = StageFailed
	e.Result.Err = fmt.Errorf("%s: %w", what, err)
	return []action{{do: doFinish, name: what}}
}

// badNonce reports a receipt error of a transaction whose nonce the chain
// refused.
func badNonce(msg string) bool { return strings.Contains(msg, chain.ErrBadNonce.Error()) }

// staleBase reports the receipt error of a delta Move2 whose base the
// target no longer holds.
func staleBase(msg string) bool { return strings.Contains(msg, core.ErrStaleBase.Error()) }

// transientMove2 reports receipt errors worth a retry: nonce desyncs and
// confirmation races (the depth check can regress only if our poll and the
// chain's header store briefly disagree). Receipts carry errors as text, so
// each is recognised by the text of the error value that produced it.
func transientMove2(msg string) bool {
	return badNonce(msg) ||
		strings.Contains(msg, core.ErrNotConfirmed.Error()) ||
		strings.Contains(msg, core.ErrNoHeader.Error())
}
