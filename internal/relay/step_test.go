package relay

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"scmove/internal/chain"
	"scmove/internal/core"
	"scmove/internal/evm"
	"scmove/internal/hashing"
	"scmove/internal/keys"
	"scmove/internal/types"
)

// stepTxs are a signed Move1 and Move2 and the proof payload for step's
// tests. step never touches a transaction, so entries share them.
type stepTxs struct {
	move1, move2 *types.Transaction
	payload      *types.Move2Payload
}

func newStepTxs(t testing.TB) stepTxs {
	kp := keys.Deterministic(12)
	payload := testPayload()
	return stepTxs{
		move1:   signedTx(t, kp, 0, types.TxCall, nil),
		move2:   signedTx(t, kp, 1, types.TxMove2, payload),
		payload: payload,
	}
}

// entry returns a Move-style entry valid for stage: started at 1 s, Move1
// committed at 5 s, the confirmation wait entered at 6 s and the proof
// confirmed at 9 s, as far as the stage has come.
func (x stepTxs) entry(stage Stage) *Entry {
	c := hashing.AddressFromBytes([]byte{0xcc})
	e := &Entry{
		Contract: c, MoveToInput: []byte{0xaa}, Stage: stage,
		Result: &MoveResult{Contract: c, StartedAt: time.Second},
	}
	if stage >= StageMove1Submitted {
		e.Move1, e.Result.Move1Tx = x.move1, x.move1.ID()
	}
	if stage >= StageWaitConfirm {
		e.Payload, e.Result.Move1At, e.confirmAt = x.payload, 5*time.Second, 6*time.Second
	}
	if stage >= StageMove2Submitted {
		e.Move2, e.Result.Move2Tx, e.Result.ProofReadyAt = x.move2, x.move2.ID(), 9*time.Second
	}
	switch stage {
	case StageDone:
		e.Result.Move2At = 12 * time.Second
	case StageFailed:
		e.Result.Err = errors.New("move2: lost")
	}
	return e
}

// sign fills in what the driver signs for a submit action.
func (x stepTxs) sign(e *Entry, acts []action) {
	for _, a := range acts {
		switch {
		case a.do != doSubmit:
		case a.leg == "move1" && e.Move1 == nil:
			e.Move1, e.Result.Move1Tx = x.move1, x.move1.ID()
		case a.leg == "move2" && e.Move2 == nil:
			e.Move2, e.Result.Move2Tx = x.move2, x.move2.ID()
		}
	}
}

// snapshot copies e deeply enough to tell whether a step changed it.
func snapshot(e *Entry) *Entry {
	c, r := *e, *e.Result
	c.Result = &r
	return &c
}

func receipt(err error) *types.Receipt {
	if err == nil {
		return &types.Receipt{Status: types.ReceiptSuccess, GasUsed: 21_000}
	}
	return &types.Receipt{Status: types.ReceiptFailed, GasUsed: 30_000, Err: err.Error()}
}

// stepRow is one edge of step's table: from an entry valid for stage,
// changed by setup, ev yields acts and the stage want, and check holds.
type stepRow struct {
	name  string
	stage Stage
	setup func(*Entry)
	ev    event
	acts  []action
	want  Stage
	check func(*testing.T, *Entry)
}

// TestStep runs step over every (stage × event) pair. Each row is one
// edge of the table: from an entry valid for its stage, an event delivered
// at 100 s yields the listed actions and stage, and the entry, with the
// driver's signing filled in, still validates. Every pair no row names must
// change nothing and ask for nothing.
func TestStep(t *testing.T) {
	const now = 100 * time.Second
	x := newStepTxs(t)
	built := testPayload()
	submit1 := action{do: doSubmit, leg: "move1"}
	submit2 := action{do: doSubmit, leg: "move2"}
	poll := action{do: doPoll}
	span := func(name string, from time.Duration) action {
		return action{do: doSpan, name: name, from: from, to: now}
	}
	retry := func(leg, reason string, attempt int) action {
		return action{do: doRetry, leg: leg, name: reason, after: backoff(attempt)}
	}
	spent := func(e *Entry) { e.Attempts = maxAttempts }
	delta := func(e *Entry) { e.Payload = deltaPayload() }
	complete := func(e *Entry) { e.MoveToInput = nil }
	errWith := func(prefix string, target error) func(*testing.T, *Entry) {
		return func(t *testing.T, e *Entry) {
			if e.Result.Err == nil || !strings.HasPrefix(e.Result.Err.Error(), prefix) ||
				(target != nil && !errors.Is(e.Result.Err, target)) {
				t.Fatalf("err = %v, want %q… wrapping %v", e.Result.Err, prefix, target)
			}
		}
	}
	attempts := func(n int) func(*testing.T, *Entry) {
		return func(t *testing.T, e *Entry) {
			if e.Attempts != n {
				t.Fatalf("attempts = %d, want %d", e.Attempts, n)
			}
		}
	}
	rows := []stepRow{
		{name: "start submits Move1", stage: StagePending, ev: event{kind: evStart},
			acts: []action{submit1}, want: StageMove1Submitted},
		{name: "recover submits Move1", stage: StagePending, ev: event{kind: evRecover},
			acts: []action{submit1}, want: StageMove1Submitted},
		{name: "backoff after a bad nonce signs Move1 anew", stage: StagePending, ev: event{kind: evTimer},
			acts: []action{submit1}, want: StageMove1Submitted},
		{name: "start of a Complete builds the proof", stage: StagePending, setup: complete,
			ev: event{kind: evStart}, acts: []action{{do: doBuildProof}}, want: StagePending},
		{name: "Complete with a proof waits at once", stage: StagePending,
			setup: func(e *Entry) { complete(e); e.Payload, e.Attempts = built, 3 },
			ev:    event{kind: evRecover}, acts: []action{poll}, want: StageWaitConfirm,
			check: func(t *testing.T, e *Entry) {
				if e.Attempts != 0 || e.confirmAt != now {
					t.Fatalf("attempts %d, wait from %v; want 0, %v", e.Attempts, e.confirmAt, now)
				}
			}},
		{name: "proof of a Complete enters the wait", stage: StagePending, setup: complete,
			ev: event{kind: evProof, payload: built}, acts: []action{poll}, want: StageWaitConfirm,
			check: func(t *testing.T, e *Entry) {
				if e.Payload != built {
					t.Fatal("payload not kept")
				}
			}},
		{name: "failed proof of a Complete fails", stage: StagePending, setup: complete,
			ev:   event{kind: evProof, err: core.ErrNotLocked},
			acts: []action{{do: doFinish, name: "build proof"}}, want: StageFailed,
			check: errWith("build proof: ", core.ErrNotLocked)},

		{name: "recover resubmits Move1", stage: StageMove1Submitted, ev: event{kind: evRecover},
			acts: []action{submit1}, want: StageMove1Submitted},
		{name: "backoff resubmits Move1", stage: StageMove1Submitted, ev: event{kind: evTimer},
			acts: []action{submit1}, want: StageMove1Submitted},
		{name: "Move1 deadline retries", stage: StageMove1Submitted, setup: func(e *Entry) { e.Attempts = 2 },
			ev: event{kind: evDeadline}, acts: []action{retry("move1", "stage deadline", 3)},
			want: StageMove1Submitted, check: attempts(3)},
		{name: "Move1 deadline past the budget fails", stage: StageMove1Submitted, setup: spent,
			ev: event{kind: evDeadline}, acts: []action{{do: doFinish, name: "move1"}}, want: StageFailed,
			check: errWith("move1: ", ErrRetryBudget)},
		{name: "Move1 receipt builds the proof", stage: StageMove1Submitted,
			ev:   event{kind: evReceipt, rec: receipt(nil)},
			acts: []action{span("move1.commit", time.Second), {do: doBuildProof}}, want: StageMove1Submitted,
			check: func(t *testing.T, e *Entry) {
				if e.Result.Move1At != now || e.Result.Move1Gas != 21_000 {
					t.Fatalf("Move1 at %v gas %d", e.Result.Move1At, e.Result.Move1Gas)
				}
			}},
		{name: "Move1 receipt with a proof waits at once", stage: StageMove1Submitted,
			setup: func(e *Entry) { e.Payload, e.Attempts = built, 2 },
			ev:    event{kind: evReceipt, rec: receipt(nil)},
			acts:  []action{span("move1.commit", time.Second), poll}, want: StageWaitConfirm,
			check: attempts(0)},
		{name: "bad-nonce Move1 is pending again", stage: StageMove1Submitted,
			ev:   event{kind: evReceipt, rec: receipt(chain.ErrBadNonce)},
			acts: []action{retry("move1", "bad nonce", 1)}, want: StagePending,
			check: func(t *testing.T, e *Entry) {
				if e.Move1 != nil || e.Attempts != 1 {
					t.Fatalf("Move1 %v, attempts %d; want dropped, 1", e.Move1, e.Attempts)
				}
			}},
		{name: "bad-nonce Move1 past the budget fails", stage: StageMove1Submitted, setup: spent,
			ev:   event{kind: evReceipt, rec: receipt(chain.ErrBadNonce)},
			acts: []action{{do: doFinish, name: "move1"}}, want: StageFailed,
			check: errWith("move1: "+chain.ErrBadNonce.Error(), nil)},
		{name: "reverted Move1 fails", stage: StageMove1Submitted,
			ev:   event{kind: evReceipt, rec: receipt(errors.New("execution reverted"))},
			acts: []action{{do: doFinish, name: "move1"}}, want: StageFailed,
			check: errWith("move1: execution reverted", nil)},
		{name: "proof after Move1 enters the wait", stage: StageMove1Submitted,
			setup: func(e *Entry) { e.Attempts = 4 },
			ev:    event{kind: evProof, payload: built}, acts: []action{poll}, want: StageWaitConfirm,
			check: attempts(0)},
		{name: "failed proof after Move1 fails", stage: StageMove1Submitted,
			ev:   event{kind: evProof, err: core.ErrNotLocked},
			acts: []action{{do: doFinish, name: "build proof"}}, want: StageFailed,
			check: errWith("build proof: ", core.ErrNotLocked)},

		{name: "recover polls", stage: StageWaitConfirm,
			setup: func(e *Entry) { e.Attempts = 2 },
			ev:    event{kind: evRecover}, acts: []action{poll}, want: StageWaitConfirm,
			check: func(t *testing.T, e *Entry) {
				if e.confirmAt != now || e.Attempts != 2 {
					t.Fatalf("wait from %v, attempts %d; want %v, 2", e.confirmAt, e.Attempts, now)
				}
			}},
		{name: "timer polls", stage: StageWaitConfirm, ev: event{kind: evTimer},
			acts: []action{poll}, want: StageWaitConfirm},
		{name: "ready submits Move2", stage: StageWaitConfirm,
			ev: event{kind: evPoll, ready: true}, acts: []action{span("p.wait", 5*time.Second), submit2},
			want: StageMove2Submitted, check: func(t *testing.T, e *Entry) {
				if e.Result.ProofReadyAt != now {
					t.Fatalf("proof ready at %v", e.Result.ProofReadyAt)
				}
			}},
		{name: "ready again after a Move2 retry submits Move2", stage: StageWaitConfirm,
			setup: func(e *Entry) { e.Result.ProofReadyAt = 9 * time.Second },
			ev:    event{kind: evPoll, ready: true}, acts: []action{submit2}, want: StageMove2Submitted},
		{name: "not ready polls again", stage: StageWaitConfirm,
			ev:   event{kind: evPoll, now: 6*time.Second + confirmDeadline - 1},
			acts: []action{{do: doCount, name: "relay.confirm_retries"}, {do: doTimer, after: pollInterval}},
			want: StageWaitConfirm},
		{name: "not ready at the deadline fails", stage: StageWaitConfirm,
			ev:   event{kind: evPoll, now: 6*time.Second + confirmDeadline},
			acts: []action{{do: doCount, name: "relay.confirm_timeouts"}, {do: doFinish, name: "confirm"}},
			want: StageFailed, check: errWith("confirm: ", ErrConfirmTimeout)},

		{name: "recover resubmits Move2", stage: StageMove2Submitted, ev: event{kind: evRecover},
			acts: []action{submit2}, want: StageMove2Submitted},
		{name: "recover without a proof time closes the wait", stage: StageMove2Submitted,
			setup: func(e *Entry) { e.Result.ProofReadyAt = 0 }, ev: event{kind: evRecover},
			acts: []action{span("p.wait", 5*time.Second), submit2}, want: StageMove2Submitted},
		{name: "backoff resubmits Move2", stage: StageMove2Submitted, ev: event{kind: evTimer},
			acts: []action{submit2}, want: StageMove2Submitted},
		{name: "Move2 deadline retries", stage: StageMove2Submitted, ev: event{kind: evDeadline},
			acts: []action{retry("move2", "stage deadline", 1)}, want: StageMove2Submitted, check: attempts(1)},
		{name: "Move2 deadline past the budget fails", stage: StageMove2Submitted, setup: spent,
			ev: event{kind: evDeadline}, acts: []action{{do: doFinish, name: "move2"}}, want: StageFailed,
			check: errWith("move2: ", ErrRetryBudget)},
		{name: "Move2 receipt finishes", stage: StageMove2Submitted, ev: event{kind: evReceipt, rec: receipt(nil)},
			acts: []action{span("move2.commit", 9*time.Second), span("move.total", time.Second), {do: doFinish}},
			want: StageDone, check: func(t *testing.T, e *Entry) {
				if e.Result.Move2At != now || e.Result.Move2Gas != 21_000 || e.Result.Err != nil {
					t.Fatalf("Move2 at %v gas %d err %v", e.Result.Move2At, e.Result.Move2Gas, e.Result.Err)
				}
			}},
		{name: "replayed Move2 fails", stage: StageMove2Submitted, ev: event{kind: evReceipt, rec: receipt(core.ErrReplay)},
			acts: []action{{do: doFinish, name: "move2"}}, want: StageFailed,
			check: errWith("move2: "+core.ErrReplay.Error(), nil)},
		{name: "transient Move2 past the budget fails", stage: StageMove2Submitted, setup: spent,
			ev:   event{kind: evReceipt, rec: receipt(core.ErrNoHeader)},
			acts: []action{{do: doFinish, name: "move2"}}, want: StageFailed,
			check: errWith("move2: "+core.ErrNoHeader.Error(), nil)},
		{name: "stale base of a delta rebuilds it in full", stage: StageMove2Submitted, setup: delta,
			ev: event{kind: evReceipt, rec: receipt(core.ErrStaleBase)}, acts: []action{{do: doFullPayload}},
			want: StageMove2Submitted, check: func(t *testing.T, e *Entry) {
				if e.Move2 != x.move2 || !e.Payload.IsDelta() {
					t.Fatal("the refused Move2 and its delta must stay until the full payload is built")
				}
			}},
		{name: "stale base of a full payload fails", stage: StageMove2Submitted,
			ev:   event{kind: evReceipt, rec: receipt(core.ErrStaleBase)},
			acts: []action{{do: doFinish, name: "move2"}}, want: StageFailed,
			check: errWith("move2: "+core.ErrStaleBase.Error(), nil)},
		{name: "full payload waits again", stage: StageMove2Submitted, setup: delta,
			ev:   event{kind: evProof, payload: built},
			acts: []action{{do: doCount, name: "relay.full_fallbacks"}, {do: doTimer, after: retryBase}},
			want: StageWaitConfirm,
			check: func(t *testing.T, e *Entry) {
				if e.Payload != built || e.Move2 != nil || e.confirmAt != now || e.Attempts != 0 {
					t.Fatalf("payload kept %v, Move2 %v, wait from %v, attempts %d",
						e.Payload == built, e.Move2, e.confirmAt, e.Attempts)
				}
			}},
		{name: "failed full payload fails", stage: StageMove2Submitted, setup: delta,
			ev:   event{kind: evProof, err: core.ErrNotLocked},
			acts: []action{{do: doFinish, name: "build proof"}}, want: StageFailed,
			check: errWith("build proof: ", core.ErrNotLocked)},
	}
	// A transient Move2 receipt drops Move2 and waits again from now.
	for _, err := range []error{core.ErrNoHeader, core.ErrNotConfirmed, chain.ErrBadNonce} {
		rows = append(rows, stepRow{name: "transient Move2 waits again: " + err.Error(), stage: StageMove2Submitted,
			ev:   event{kind: evReceipt, rec: receipt(err)},
			acts: []action{retry("move2", err.Error(), 1)}, want: StageWaitConfirm,
			check: func(t *testing.T, e *Entry) {
				if e.Move2 != nil || e.confirmAt != now || e.Attempts != 1 {
					t.Fatalf("Move2 %v, wait from %v, attempts %d", e.Move2, e.confirmAt, e.Attempts)
				}
			}})
	}

	legal := make(map[[2]int]bool)
	for _, r := range rows {
		legal[[2]int{int(r.stage), int(r.ev.kind)}] = true
		t.Run(r.name, func(t *testing.T) {
			e := x.entry(r.stage)
			if r.setup != nil {
				r.setup(e)
			}
			ev := r.ev
			if ev.now == 0 {
				ev.now = now
			}
			acts := step(e, ev)
			if !reflect.DeepEqual(acts, r.acts) {
				t.Fatalf("actions\n  %+v\nwant\n  %+v", acts, r.acts)
			}
			if e.Stage != r.want {
				t.Fatalf("stage %v, want %v", e.Stage, r.want)
			}
			if r.check != nil {
				r.check(t, e)
			}
			x.sign(e, acts)
			if err := e.validate(); err != nil {
				t.Fatalf("entry after the step: %v", err)
			}
		})
	}
	for stage := StagePending; stage <= StageFailed; stage++ {
		for kind := evStart; kind <= evPoll; kind++ {
			if legal[[2]int{int(stage), int(kind)}] {
				continue
			}
			e := x.entry(stage)
			before := snapshot(e)
			ev := event{kind: kind, now: now, rec: receipt(nil), payload: built, ready: true}
			if acts := step(e, ev); acts != nil || !reflect.DeepEqual(e, before) {
				t.Errorf("%v × event %d: actions %+v, entry changed %v; want neither",
					stage, kind, acts, !reflect.DeepEqual(e, before))
			}
		}
	}
}

// deltaPayload is testPayload as a delta: one changed entry, one deleted
// key and no code, against a base.
func deltaPayload() *types.Move2Payload {
	p := testPayload()
	p.Code, p.Storage = nil, p.Storage[1:]
	p.Base, p.Deleted = hashing.Sum([]byte("base")), []evm.Word{{5}}
	return p
}

// stepEdges are the stage changes the table allows, self-loops included.
var stepEdges = map[Stage][]Stage{
	StagePending:        {StagePending, StageMove1Submitted, StageWaitConfirm, StageFailed},
	StageMove1Submitted: {StageMove1Submitted, StagePending, StageWaitConfirm, StageFailed},
	StageWaitConfirm:    {StageWaitConfirm, StageMove2Submitted, StageFailed},
	StageMove2Submitted: {StageMove2Submitted, StageWaitConfirm, StageDone, StageFailed},
	StageDone:           {StageDone},
	StageFailed:         {StageFailed},
}

// fuzzEvent decodes one byte into an event: the low bits pick the kind,
// the rest a variant and how much later it arrives.
func fuzzEvent(b byte, now *time.Duration, payload *types.Move2Payload) event {
	v := int(b / 7)
	*now += time.Duration(v) * 30 * time.Second
	ev := event{kind: eventKind(b % 7), now: *now, ready: v%2 == 0}
	switch ev.kind {
	case evReceipt:
		ev.rec = receipt([]error{nil, chain.ErrBadNonce, core.ErrNoHeader, core.ErrNotConfirmed, core.ErrReplay, core.ErrStaleBase}[v%6])
	case evProof:
		if v%2 == 0 {
			ev.payload = payload
		} else {
			ev.err = core.ErrNotLocked
		}
	}
	return ev
}

// FuzzStep drives step from a random stage through a random sequence of
// events (data[0] picks the stage, and whether the payload is a delta;
// data[1] the attempts and the move's style; every later byte one event) and checks what a crash-at-any-step
// sweep relies on: Done and Failed absorb every event untouched, Attempts
// stays inside the budget, the stage moves only along the table's edges,
// and after every step, with the driver's signing filled in, the entry
// validates and survives DecodeJournal(Encode()).
func FuzzStep(f *testing.F) {
	for _, seed := range [][]byte{
		{0, 0, 0, 2, 5, 6, 2},                   // Move: happy path
		{0, 0x80, 0, 5, 6, 2},                   // Complete: proof, poll, Move2
		{1, 0, 9, 4, 2, 5, 27, 4, 13, 6, 2},     // bad nonce, backoff, proof, not ready, ready
		{3, 0, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3}, // Move2 deadlines past the budget
		{3, 0, 16, 4, 6, 23, 4, 6, 9, 4, 6, 2},  // transient Move2 receipts
		{2, 0, 251, 6},                          // the confirmation deadline passes
		{1, 10, 12, 1, 0},                       // failed proof, then absorbed events
		{4, 0, 0, 1, 2, 3, 4, 5, 6},             // done absorbs everything
		{0x81, 0, 37, 5, 6, 2},                  // stale base, full payload, poll, Move2
	} {
		f.Add(seed)
	}
	x := newStepTxs(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		e := x.entry(Stage(data[0] % 6))
		if data[0]&0x80 != 0 && e.Payload != nil {
			e.Payload = deltaPayload()
		}
		e.Attempts = int(data[1]&0x7f) % (maxAttempts + 1)
		if data[1]&0x80 != 0 {
			e.MoveToInput = nil
		}
		now := 10 * time.Second
		for i, b := range data[2:] {
			before := snapshot(e)
			acts := step(e, fuzzEvent(b, &now, x.payload))
			if !before.InFlight() && (acts != nil || !reflect.DeepEqual(e, before)) {
				t.Fatalf("event %d: %v did not absorb it: %+v", i, before.Stage, acts)
			}
			if e.Attempts < 0 || e.Attempts > maxAttempts {
				t.Fatalf("event %d: attempts %d outside 0..%d", i, e.Attempts, maxAttempts)
			}
			allowed := false
			for _, s := range stepEdges[before.Stage] {
				allowed = allowed || s == e.Stage
			}
			if !allowed {
				t.Fatalf("event %d: %v → %v is no edge of the table", i, before.Stage, e.Stage)
			}
			x.sign(e, acts)
			if err := e.validate(); err != nil {
				t.Fatalf("event %d: %v → %v: %v", i, before.Stage, e.Stage, err)
			}
			j := NewJournal()
			j.put(e)
			enc := j.Encode()
			dec, err := DecodeJournal(enc)
			if err != nil {
				t.Fatalf("event %d: journal round trip: %v", i, err)
			}
			if !bytes.Equal(dec.Encode(), enc) {
				t.Fatalf("event %d: journal round trip changed the entry", i)
			}
		}
	})
}
