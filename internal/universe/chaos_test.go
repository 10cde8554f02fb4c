package universe

import (
	"errors"
	"strings"
	"testing"
	"time"

	"scmove/internal/contracts"
	"scmove/internal/core"
	"scmove/internal/relay"
	"scmove/internal/simnet"
	"scmove/internal/u256"
)

// chaosConfig returns the paper deployment with fault injection on every
// message path, all driven by the given fixed seed.
func chaosConfig(clients int, seed int64, faults simnet.LinkFaults) Config {
	cfg := DefaultConfig(clients)
	cfg.Chaos = &ChaosConfig{
		WAN:         faults,
		Submit:      faults,
		HeaderRelay: faults,
		Seed:        seed,
	}
	return cfg
}

// newChaosUniverse starts a universe under the given per-link faults.
func newChaosUniverse(t *testing.T, clients int, seed int64, faults simnet.LinkFaults) *Universe {
	t.Helper()
	u, err := New(chaosConfig(clients, seed, faults))
	if err != nil {
		t.Fatal(err)
	}
	u.Start()
	return u
}

// setRelayerCut severs (or heals) every relayer-facing link in the
// universe: all client submission paths and the header relays built so far
// (a Mover builds its pair's). It models a relayer whose network partitions
// away mid-move.
func (u *Universe) setRelayerCut(cut bool) {
	for _, link := range u.submitLinks {
		link.SetCut(cut)
	}
	for _, link := range u.relayLinks {
		link.SetCut(cut)
	}
}

// TestMoveUnder20PctDropAndDup is the headline chaos scenario: every link in
// the universe — validator WAN, client submissions, header relays — drops
// 20% of messages and duplicates another 20%, with jitter. A full
// cross-chain move must still complete exactly once, carried by the
// relayer's retry/backoff machinery, and the counters must show the faults
// were actually exercised.
func TestMoveUnder20PctDropAndDup(t *testing.T) {
	faults := simnet.LinkFaults{DropRate: 0.20, DupRate: 0.20, JitterFrac: 0.1}
	u := newChaosUniverse(t, 1, 12345, faults)
	cl := u.Client(0)
	bur, eth := u.Chain(2), u.Chain(1)

	store, err := u.MustDeploy(cl, bur, contracts.StoreName,
		contracts.StoreConstructorArgs(cl.Address(), 10), u256.Zero(), 10*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := u.MoveAndWait(cl, 2, 1, store, 30*time.Minute); err != nil {
		t.Fatalf("move must survive 20%% drop + 20%% duplication: %v", err)
	}
	if eth.StateDB().GetLocation(store) != 1 {
		t.Fatal("contract must be live on the target chain")
	}
	if bur.StateDB().GetLocation(store) != 1 {
		t.Fatal("source tombstone must point at the target chain")
	}

	c := u.Counters()
	if c.Get("wan.dropped") == 0 || c.Get("wan.duplicated") == 0 {
		t.Fatalf("WAN faults not exercised: %v", c.Snapshot())
	}
	if c.Get("submit.dropped")+c.Get("headers.dropped") == 0 {
		t.Fatalf("relayer-path drops not exercised: %v", c.Snapshot())
	}
	if c.Get("relay.moves_completed") != 1 {
		t.Fatalf("moves_completed = %d, want 1", c.Get("relay.moves_completed"))
	}
}

// TestChaosMoveDeterministic runs the same seeded chaos move twice and
// demands bit-identical timing and counters — the property that makes chaos
// failures reproducible (and keeps the suite stable under -race).
func TestChaosMoveDeterministic(t *testing.T) {
	run := func() (time.Duration, map[string]uint64) {
		faults := simnet.LinkFaults{DropRate: 0.15, DupRate: 0.15, JitterFrac: 0.1}
		u, err := New(chaosConfig(1, 777, faults))
		if err != nil {
			t.Fatal(err)
		}
		u.Start()
		cl := u.Client(0)
		store, err := u.MustDeploy(cl, u.Chain(2), contracts.StoreName,
			contracts.StoreConstructorArgs(cl.Address(), 3), u256.Zero(), 10*time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		res, err := u.MoveAndWait(cl, 2, 1, store, 30*time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		return res.Total(), u.Counters().Snapshot()
	}
	total1, counters1 := run()
	total2, counters2 := run()
	if total1 != total2 {
		t.Fatalf("same seed, different timings: %v vs %v", total1, total2)
	}
	if len(counters1) != len(counters2) {
		t.Fatalf("same seed, different counters: %v vs %v", counters1, counters2)
	}
	for name, v := range counters1 {
		if counters2[name] != v {
			t.Fatalf("counter %s: %d vs %d", name, v, counters2[name])
		}
	}
}

// TestMoverCrashRecoveryMidMove crashes the relayer at each stage that has
// a transaction on the wire or a proof waiting, and restarts it from the
// bytes of its journal: the decoded journal resumes the move, which
// completes exactly once, with the recovery counted.
func TestMoverCrashRecoveryMidMove(t *testing.T) {
	for _, stage := range []relay.Stage{
		relay.StageMove1Submitted, relay.StageWaitConfirm, relay.StageMove2Submitted,
	} {
		t.Run(stage.String(), func(t *testing.T) {
			testMoverCrashRecovery(t, stage)
		})
	}
}

func testMoverCrashRecovery(t *testing.T, crashAt relay.Stage) {
	u := newIBCUniverse(t, 1)
	cl := u.Client(0)
	bur, eth := u.Chain(2), u.Chain(1)

	store, err := u.MustDeploy(cl, bur, contracts.StoreName,
		contracts.StoreConstructorArgs(cl.Address(), 5), u256.Zero(), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	nonceBefore := eth.StateDB().GetMoveNonce(store)

	m1 := u.Mover(2, 1)
	var result *relay.MoveResult
	m1.Move(cl, store, core.MoveToInput(1), func(r *relay.MoveResult) { result = r })

	// Run until the move reaches the crash stage, then crash the relayer.
	stage := func(j *relay.Journal) relay.Stage {
		e, _ := j.Entry(store)
		return e.Stage
	}
	if !u.RunUntil(func() bool { return stage(m1.Journal()) >= crashAt }, 30*time.Minute) {
		t.Fatalf("move never reached %v", crashAt)
	}
	if got := stage(m1.Journal()); got != crashAt {
		t.Fatalf("move passed %v unobserved: at %v", crashAt, got)
	}
	m1.Crash()
	u.Run(30 * time.Second) // the dead relayer misses receipts and polls
	if result != nil {
		t.Fatal("a crashed mover must not complete the move")
	}

	// Restart from bytes: a fresh Mover over the decoded journal resumes
	// the move. The decoded entry has no completion callback, so completion
	// is read from the journal and the chains.
	journal, err := relay.DecodeJournal(m1.Journal().Encode())
	if err != nil {
		t.Fatalf("decode journal: %v", err)
	}
	m2 := relay.NewMover(u.Sched, bur, eth, journal, u.Counters())
	if err := m2.Recover(cl); err != nil {
		t.Fatalf("recover: %v", err)
	}
	finished := func() bool { s := stage(journal); return s == relay.StageDone || s == relay.StageFailed }
	if !u.RunUntil(finished, 30*time.Minute) {
		t.Fatalf("recovered mover must finish the move, still at %v", stage(journal))
	}
	if e, _ := journal.Entry(store); e.Stage != relay.StageDone {
		t.Fatalf("journal stage = %v (%v), want done", e.Stage, e.Result.Err)
	}
	if result != nil {
		t.Fatal("the crashed mover's callback must stay silent")
	}
	if bur.StateDB().GetLocation(store) != 1 || eth.StateDB().GetLocation(store) != 1 {
		t.Fatal("contract must be live on the target only")
	}
	if got := eth.StateDB().GetMoveNonce(store); got != nonceBefore+1 {
		t.Fatalf("target move nonce = %d, want %d: the move must land exactly once", got, nonceBefore+1)
	}
	if got := u.Counters().Get("relay.recoveries"); got != 1 {
		t.Fatalf("recoveries = %d, want 1", got)
	}
}

// TestDuplicateMove2Rejected delivers the same Move2 payload twice: the
// second application must be rejected by the move-nonce replay check and
// leave the target state untouched (paper Fig. 2).
func TestDuplicateMove2Rejected(t *testing.T) {
	u := newIBCUniverse(t, 2)
	cl := u.Client(0)
	bur, eth := u.Chain(2), u.Chain(1)

	store, err := u.MustDeploy(cl, bur, contracts.StoreName,
		contracts.StoreConstructorArgs(cl.Address(), 5), u256.Zero(), time.Minute)
	if err != nil {
		t.Fatal(err)
	}

	m := u.Mover(2, 1)
	var result *relay.MoveResult
	m.Move(cl, store, core.MoveToInput(1), func(r *relay.MoveResult) { result = r })
	if !u.RunUntil(func() bool { return result != nil }, 30*time.Minute) {
		t.Fatal("move did not complete")
	}
	if result.Err != nil {
		t.Fatal(result.Err)
	}

	// Replay the journaled proof payload from a different client (fresh
	// account nonce, identical move proof).
	entry, ok := m.Journal().Entry(store)
	if !ok || entry.Payload == nil {
		t.Fatal("journal must retain the move payload")
	}
	before, beforeOK := eth.StateDB().GetAccount(store)
	dup := u.Client(1)
	dupID := dup.SubmitSigned(eth, dup.SignedMove2(eth, entry.Payload))
	rec, err := u.waitTx(eth, dupID, 10*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Succeeded() {
		t.Fatal("duplicated Move2 must be rejected")
	}
	if !strings.Contains(rec.Err, core.ErrReplay.Error()) {
		t.Fatalf("rejection must cite the move nonce, got: %s", rec.Err)
	}
	after, afterOK := eth.StateDB().GetAccount(store)
	if beforeOK != afterOK || before != after {
		t.Fatalf("replay must leave the target account unchanged: %+v vs %+v", before, after)
	}
}

// TestPartitionThenHealCompletesMove cuts every relayer-facing link (client
// submissions and header relays) right after Move1 commits, heals them
// after several blocks, and asserts the move still completes — with the
// confirmation-retry counter reflecting the outage.
func TestPartitionThenHealCompletesMove(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.Chaos = &ChaosConfig{Seed: 99}
	u, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	u.Start()
	cl := u.Client(0)
	bur := u.Chain(2)

	store, err := u.MustDeploy(cl, bur, contracts.StoreName,
		contracts.StoreConstructorArgs(cl.Address(), 5), u256.Zero(), time.Minute)
	if err != nil {
		t.Fatal(err)
	}

	m := u.Mover(2, 1)
	var result *relay.MoveResult
	m.Move(cl, store, core.MoveToInput(1), func(r *relay.MoveResult) { result = r })

	// Wait for Move1 to commit, then partition the relayer away.
	ok := u.RunUntil(func() bool {
		e, found := m.Journal().Entry(store)
		return found && e.Stage >= relay.StageWaitConfirm
	}, 2*time.Minute)
	if !ok {
		t.Fatal("move1 never committed")
	}
	baseline := u.Counters().Get("relay.confirm_retries")
	u.setRelayerCut(true)
	// Several blocks on both chains pass with the relayer isolated: the
	// target light client learns nothing, confirmation cannot progress.
	u.Run(2 * time.Minute)
	if result != nil {
		t.Fatalf("move must not finish while partitioned: %+v", result.Err)
	}
	duringOutage := u.Counters().Get("relay.confirm_retries") - baseline
	if duringOutage < 100 {
		t.Fatalf("confirmation polling must keep retrying through the outage, got %d retries", duringOutage)
	}

	u.setRelayerCut(false)
	if !u.RunUntil(func() bool { return result != nil }, 30*time.Minute) {
		t.Fatal("move must complete after the partition heals")
	}
	if result.Err != nil {
		t.Fatalf("healed move failed: %v", result.Err)
	}
	if u.Chain(1).StateDB().GetLocation(store) != 1 {
		t.Fatal("contract must arrive after healing")
	}
	// The outage is visible in the phase timings: the proof wait spans the
	// partition.
	if result.WaitProofLatency() < 2*time.Minute {
		t.Fatalf("proof wait %v must reflect the ≥2 min outage", result.WaitProofLatency())
	}
}

// TestConfirmDeadlineFailsMoveDistinctly keeps the relayer partitioned
// forever: instead of polling indefinitely, the move must fail with
// ErrConfirmTimeout once the 15-minute confirmation deadline passes.
func TestConfirmDeadlineFailsMoveDistinctly(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.Chaos = &ChaosConfig{Seed: 5}
	u, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	u.Start()
	cl := u.Client(0)

	store, err := u.MustDeploy(cl, u.Chain(2), contracts.StoreName,
		contracts.StoreConstructorArgs(cl.Address(), 2), u256.Zero(), time.Minute)
	if err != nil {
		t.Fatal(err)
	}

	m := u.Mover(2, 1) // builds the pair's two header relays
	var result *relay.MoveResult
	m.Move(cl, store, core.MoveToInput(1), func(r *relay.MoveResult) { result = r })
	ok := u.RunUntil(func() bool {
		e, found := m.Journal().Entry(store)
		return found && e.Stage >= relay.StageWaitConfirm
	}, 2*time.Minute)
	if !ok {
		t.Fatal("move1 never committed")
	}
	// Cut only the header relays: the light client freezes, and the
	// confirmation deadline must fire.
	cut := 0
	for _, link := range u.relayLinks {
		link.SetCut(true)
		cut++
	}
	if cut != 2 {
		t.Fatalf("cut %d header relays, want the pair's 2", cut)
	}
	if !u.RunUntil(func() bool { return result != nil }, 30*time.Minute) {
		t.Fatal("move must fail instead of polling forever")
	}
	if !errors.Is(result.Err, relay.ErrConfirmTimeout) {
		t.Fatalf("err = %v, want ErrConfirmTimeout", result.Err)
	}
	if got := u.Counters().Get("relay.confirm_timeouts"); got != 1 {
		t.Fatalf("confirm_timeouts = %d, want 1", got)
	}
	if got := u.Counters().Get("relay.moves_failed"); got != 1 {
		t.Fatalf("moves_failed = %d, want 1", got)
	}
}

// TestValidatorCrashRestartSchedule drives the BFT chain through a
// scheduled crash-and-restart of a third of its validators: the chain keeps
// committing through the outage (quorum holds) and a cross-chain move
// completes after the restarts.
func TestValidatorCrashRestartSchedule(t *testing.T) {
	u := newIBCUniverse(t, 1)
	cl := u.Client(0)
	bur := u.Chain(2)

	cluster := u.bft[0].Cluster
	for _, i := range []int{1, 4, 7} {
		cluster.ScheduleCrashRestart(i, 20*time.Second, 3*time.Minute)
	}

	store, err := u.MustDeploy(cl, bur, contracts.StoreName,
		contracts.StoreConstructorArgs(cl.Address(), 5), u256.Zero(), 2*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	res, err := u.MoveAndWait(cl, 2, 1, store, 15*time.Minute)
	if err != nil {
		t.Fatalf("move must survive scheduled crash-restarts: %v", err)
	}
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if u.Chain(1).StateDB().GetLocation(store) != 1 {
		t.Fatal("contract must arrive despite validator churn")
	}
	// After the restart window the chain must keep growing with all
	// validators back.
	h1 := bur.Head().Height
	u.Run(time.Minute)
	if bur.Head().Height <= h1 {
		t.Fatal("chain must keep committing after validator restarts")
	}
}

// TestWANPartitionSchedule partitions 4 of 10 Burrow validators away for a
// minute via the simnet schedule: the majority side keeps committing, and
// block production resumes normally after the heal.
func TestWANPartitionSchedule(t *testing.T) {
	u := newIBCUniverse(t, 1)
	bur := u.Chain(2)

	// Node ids 1..10 belong to the PoW chain? No: BFT validators registered
	// first get ids from the universe's sequential assignment. Find the BFT
	// cluster's ids via the cluster itself — partition the first four.
	cluster := u.bft[0].Cluster
	ids := cluster.NodeIDs()
	u.Net.SchedulePartition(30*time.Second, 90*time.Second, ids[:4]...)

	u.Run(3 * time.Minute)
	h := bur.Head().Height
	if h < 10 {
		t.Fatalf("majority partition must keep committing, height = %d", h)
	}
	u.Run(time.Minute)
	if bur.Head().Height <= h {
		t.Fatal("chain must keep committing after the partition heals")
	}
}
