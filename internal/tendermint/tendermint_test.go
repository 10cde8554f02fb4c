package tendermint

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"scmove/internal/hashing"
	"scmove/internal/journal"
	"scmove/internal/metrics"
	"scmove/internal/simclock"
	"scmove/internal/simnet"
)

// recordingApp captures commits (and, given a clock, their simulated times)
// and hands out height-tagged payloads.
type recordingApp struct {
	commits map[uint64][]byte
	order   []uint64
	now     func() time.Duration
	times   map[uint64]time.Duration
}

func newRecordingApp() *recordingApp {
	return &recordingApp{commits: make(map[uint64][]byte), times: make(map[uint64]time.Duration)}
}

func (a *recordingApp) Propose(height uint64) []byte {
	return []byte(fmt.Sprintf("payload-%d", height))
}

func (a *recordingApp) Commit(height uint64, payload []byte) {
	if _, dup := a.commits[height]; dup {
		panic("double commit")
	}
	a.commits[height] = payload
	a.order = append(a.order, height)
	if a.now != nil {
		a.times[height] = a.now()
	}
}

func newCluster(t *testing.T, n int) (*simclock.Scheduler, *Cluster, *recordingApp) {
	t.Helper()
	sched := simclock.New()
	net := simnet.New(sched, simnet.Config{Seed: 1, Faults: simnet.LinkFaults{JitterFrac: 0.1}})
	app := newRecordingApp()
	ids := make([]simnet.NodeID, n)
	regions := make([]simnet.Region, n)
	for i := range ids {
		ids[i] = simnet.NodeID(i + 1)
		regions[i] = simnet.Region(i % simnet.RegionCount)
	}
	cluster, err := NewCluster(sched, net, app, 5*time.Second, ids, regions)
	if err != nil {
		t.Fatal(err)
	}
	return sched, cluster, app
}

func TestClusterCommitsSuccessiveHeights(t *testing.T) {
	sched, cluster, app := newCluster(t, 10)
	cluster.Start()
	sched.RunUntil(62 * time.Second)

	got := cluster.committed
	// 5 s interval plus WAN voting: expect roughly one block per 5-6 s.
	if got < 9 || got > 13 {
		t.Fatalf("committed height = %d, want ≈11", got)
	}
	// Heights commit in order, each exactly once (Commit panics on dup).
	for i, h := range app.order {
		if h != uint64(i+1) {
			t.Fatalf("commit order broken: %v", app.order)
		}
	}
	// Payload content survives.
	if string(app.commits[3]) != "payload-3" {
		t.Fatalf("payload = %q", app.commits[3])
	}
}

func TestCommitLatencyAboveInterval(t *testing.T) {
	sched, cluster, app := newCluster(t, 10)
	app.now = sched.Now
	cluster.Start()
	sched.RunUntil(60 * time.Second)
	t2, ok2 := app.times[2]
	t3, ok3 := app.times[3]
	if !ok2 || !ok3 {
		t.Fatal("heights 2 and 3 must commit")
	}
	gap := t3 - t2
	// The paper observes block latency slightly above the 5 s interval.
	if gap < 5*time.Second || gap > 7*time.Second {
		t.Fatalf("inter-block gap = %v, want 5-7 s", gap)
	}
}

func TestToleratesFCrashFaults(t *testing.T) {
	sched, cluster, _ := newCluster(t, 10) // f = 3
	cluster.CrashValidator(1)
	cluster.CrashValidator(4)
	cluster.CrashValidator(7)
	cluster.Start()
	sched.RunUntil(90 * time.Second)
	if got := cluster.committed; got < 5 {
		t.Fatalf("committed height = %d with f faults, want progress", got)
	}
}

func TestCrashedProposerRotatesOut(t *testing.T) {
	sched, cluster, _ := newCluster(t, 4)
	// Height 1's proposer is index (1+0)%4 = 1; crash it.
	cluster.CrashValidator(1)
	cluster.Start()
	sched.RunUntil(30 * time.Second)
	if cluster.committed < 1 {
		t.Fatal("cluster must commit past a crashed proposer via round change")
	}
}

func TestHaltsBeyondF(t *testing.T) {
	sched, cluster, _ := newCluster(t, 10) // quorum = 7, so 4 crashes halt it
	for _, i := range []int{0, 3, 6, 9} {
		cluster.CrashValidator(i)
	}
	cluster.Start()
	sched.RunUntil(60 * time.Second)
	if got := cluster.committed; got != 0 {
		t.Fatalf("committed height = %d with >f faults, want 0 (safety)", got)
	}
}

func TestQuorumSizes(t *testing.T) {
	cases := map[int]int{1: 1, 3: 3, 4: 3, 7: 5, 10: 7, 13: 9}
	for n, want := range cases {
		_, cluster, _ := newCluster(t, n)
		if got := cluster.Quorum(); got != want {
			t.Errorf("quorum(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestRestartValidatorRejoins(t *testing.T) {
	sched, cluster, _ := newCluster(t, 10) // quorum = 7
	// 4 crashes halt the cluster; restarting one restores the quorum.
	for _, i := range []int{0, 3, 6, 9} {
		cluster.CrashValidator(i)
	}
	cluster.Start()
	sched.RunUntil(60 * time.Second)
	if got := cluster.committed; got != 0 {
		t.Fatalf("height = %d before restart, want halt", got)
	}
	cluster.RestartValidator(0)
	sched.RunUntil(4 * time.Minute)
	if got := cluster.committed; got < 3 {
		t.Fatalf("height = %d after restart, want recovery", got)
	}
}

func TestScheduleCrashRestartOutage(t *testing.T) {
	sched, cluster, _ := newCluster(t, 10)
	// Take 4 of 10 down for a window: commits stop, then resume.
	for _, i := range []int{0, 3, 6, 9} {
		cluster.ScheduleCrashRestart(i, 30*time.Second, 2*time.Minute)
	}
	cluster.Start()
	sched.RunUntil(30 * time.Second)
	beforeOutage := cluster.committed
	if beforeOutage < 2 {
		t.Fatalf("height = %d before the outage", beforeOutage)
	}
	sched.RunUntil(2 * time.Minute)
	duringOutage := cluster.committed
	sched.RunUntil(6 * time.Minute)
	after := cluster.committed
	if after <= duringOutage {
		t.Fatalf("height stuck at %d after restarts", after)
	}
}

func TestRoundTimeoutCapped(t *testing.T) {
	sched := simclock.New()
	net := simnet.New(sched, simnet.Config{Seed: 1})
	ids := []simnet.NodeID{1, 2, 3, 4}
	regions := make([]simnet.Region, 4)
	cluster, err := NewCluster(sched, net, newRecordingApp(), 5*time.Second, ids, regions)
	if err != nil {
		t.Fatal(err)
	}
	// With only 2 of 4 validators up the cluster cannot commit; rounds keep
	// advancing. Uncapped, round r waits 2(r+1) seconds, so by 30 minutes a
	// validator would sit at round ~41; capped at 30 s it reaches ~67, and
	// that steady pace is what bounds the post-partition recovery time.
	cluster.CrashValidator(2)
	cluster.CrashValidator(3)
	cluster.Start()
	sched.RunUntil(30 * time.Minute)
	if r := cluster.validators[0].round; r < 55 {
		t.Fatalf("round = %d after 30 min, want steady 30 s rounds under the cap", r)
	}
}

func TestStragglerCatchesUpAfterLoss(t *testing.T) {
	// Drop every message to and from one validator for a while: it falls
	// behind. Once traffic heals it must catch back up via block sync
	// rather than stalling the quorum forever.
	sched, cluster, _ := newCluster(t, 10)
	ids := cluster.NodeIDs()
	wan := cluster.net.(*simnet.Network) // fault injection is a deterministic-network feature
	for _, other := range ids[1:] {
		// SetLinkCut is bidirectional.
		wan.SetLinkCut(ids[0], other, true)
	}
	cluster.Start()
	sched.RunUntil(60 * time.Second)
	behind := cluster.validators[0].height
	committed := cluster.committed
	if behind >= committed {
		t.Fatalf("isolated validator at %d, cluster at %d: expected a straggler", behind, committed)
	}
	for _, other := range ids[1:] {
		wan.SetLinkCut(ids[0], other, false)
	}
	sched.RunUntil(2 * time.Minute)
	if got := cluster.validators[0].height; got <= committed {
		t.Fatalf("validator stuck at %d after heal (cluster committed %d)", got, cluster.committed)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() []uint64 {
		sched, cluster, app := newCluster(t, 7)
		cluster.Start()
		sched.RunUntil(40 * time.Second)
		return app.order
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("runs differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("runs must be deterministic")
		}
	}
}

// faultyClusterJournal is the digest of the faulty cluster's journal.
const faultyClusterJournal = "c17701ee6f19d9a0539c72f075d94e233b015800d3aa69a0b23d79bc8c83fc48"

// faultyClusterRun runs ten validators for fifteen simulated minutes
// under every fault the network and the cluster inject — drops, duplicates,
// reordering, tampered proposals and votes, a lossy per-link override, a
// partition that halts the cluster until it heals, a crash-restart, and a
// validator equivocating both proposals and votes — and journals the run:
// its commits, the evidence in detection order, where each validator stands
// and the network's fault counts.
func faultyClusterRun(t *testing.T) (*journal.Journal, *Cluster, *simnet.Network) {
	t.Helper()
	sched := simclock.New()
	net := simnet.New(sched, simnet.Config{
		Seed: 7,
		Faults: simnet.LinkFaults{JitterFrac: 0.1, DropRate: 0.1, DupRate: 0.2,
			ReorderFrac: 0.1, MaxReorderDelay: 300 * time.Millisecond, CorruptRate: 0.05},
		Tamper: WireTamper(),
	})
	app := newRecordingApp()
	app.now = sched.Now
	const n = 10
	ids := make([]simnet.NodeID, n)
	regions := make([]simnet.Region, n)
	for i := range ids {
		ids[i] = simnet.NodeID(i + 1)
		regions[i] = simnet.Region(i % simnet.RegionCount)
	}
	cluster, err := NewCluster(sched, net, app, 5*time.Second, ids, regions)
	if err != nil {
		t.Fatal(err)
	}
	cluster.SetByzantine(3, ByzantineBehavior{EquivocateProposals: true, EquivocateVotes: true})
	cluster.ScheduleCrashRestart(5, 40*time.Second, 100*time.Second)
	net.SetLinkFaults(ids[7], ids[8], simnet.LinkFaults{DropRate: 0.5, JitterFrac: 0.3})
	net.SchedulePartition(3*time.Minute, 4*time.Minute, ids[:4]...)
	cluster.Start()
	sched.RunUntil(15 * time.Minute)

	var j journal.Journal
	for _, h := range app.order {
		j.Tail("commit", h, "at", app.times[h], "payload", hashing.Sum(app.commits[h]))
	}
	for _, ev := range cluster.Evidence() {
		j.Tail("evidence", fmt.Sprintf("%+v", ev))
	}
	for _, v := range cluster.validators {
		j.Tail("validator", v.index, "height", v.height, "round", v.round)
	}
	j.Tail("wan", fmt.Sprintf("%+v", net.FaultStats()))
	return &j, cluster, net
}

// TestFaultyClusterDigest pins the vote tables, the evidence rules and every
// fault path of the simulated WAN at once: the faulty run must exercise each
// of them and its journal must hash to faultyClusterJournal. Wired into
// `make detsmoke`.
func TestFaultyClusterDigest(t *testing.T) {
	j, cluster, net := faultyClusterRun(t)
	var proposals, votes int
	for _, ev := range cluster.Evidence() {
		if ev.Proposal {
			proposals++
		} else {
			votes++
		}
	}
	s := net.FaultStats()
	if cluster.committed < 20 || proposals == 0 || votes == 0 ||
		s.Dropped == 0 || s.Duplicated == 0 || s.Reordered == 0 || s.Corrupted == 0 {
		t.Fatalf("the run left a fault path unexercised: height %d, evidence %d proposal / %d vote, wan %+v",
			cluster.committed, proposals, votes, s)
	}
	j.Check(t, faultyClusterJournal)
}

// TestVoteTablesBoundedByCurrentHeight runs a long chain with an
// equivocating voter and a crashed proposer (so some heights take extra
// rounds) and requires every validator's vote tables to hold the current
// height only: no more rounds than the validator has seen at its height —
// its own, and those of the messages the network delivered to it — each
// round 3n slots (a proposal and two votes per sender), and per vote kind
// one vote set per distinct hash whose counts sum to the slots opened.
func TestVoteTablesBoundedByCurrentHeight(t *testing.T) {
	const n = 7
	sched := simclock.New()
	log := &roundLog{
		Transport: simnet.New(sched, simnet.Config{Seed: 1, Faults: simnet.LinkFaults{JitterFrac: 0.1}}),
		seen:      make(map[simnet.NodeID]map[[2]uint64]bool),
	}
	ids := make([]simnet.NodeID, n)
	regions := make([]simnet.Region, n)
	for i := range ids {
		ids[i] = simnet.NodeID(i + 1)
		regions[i] = simnet.Region(i % simnet.RegionCount)
	}
	cluster, err := NewCluster(sched, log, newRecordingApp(), 5*time.Second, ids, regions)
	if err != nil {
		t.Fatal(err)
	}
	cluster.SetByzantine(2, ByzantineBehavior{EquivocateVotes: true})
	cluster.CrashValidator(5)
	cluster.Start()
	check := func() {
		t.Helper()
		for _, v := range cluster.validators {
			seen := v.round + 1
			for hr := range log.seen[v.id] {
				if hr[0] == v.height && int(hr[1]) > v.round {
					seen++
				}
			}
			if len(v.votes) > seen {
				t.Fatalf("validator %d at height %d round %d holds %d rounds, has seen %d",
					v.index, v.height, v.round, len(v.votes), seen)
			}
			for i, rv := range v.votes {
				opened := [3]int{}
				for k := range rv.seen {
					if len(rv.seen[k]) != n {
						t.Fatalf("validator %d round %d: %d slots of kind %d, want %d", v.index, rv.round, len(rv.seen[k]), k, n)
					}
					for _, s := range rv.seen[k] {
						if s.used {
							opened[k]++
						}
					}
					counted := 0
					for _, set := range rv.tally[k] {
						counted += set.count
					}
					if k > 0 && counted != opened[k] || len(rv.tally[k]) > n {
						t.Fatalf("validator %d round %d kind %d: %d vote sets counting %d voters, %d slots opened",
							v.index, rv.round, k, len(rv.tally[k]), counted, opened[k])
					}
				}
				if opened == [3]int{} {
					t.Fatalf("validator %d holds round %d with no slot opened", v.index, rv.round)
				}
				for _, other := range v.votes[:i] {
					if other.round == rv.round {
						t.Fatalf("validator %d holds round %d twice", v.index, rv.round)
					}
				}
			}
		}
	}
	for cluster.committed < 1000 {
		sched.RunUntil(sched.Now() + time.Minute)
		check()
		if sched.Now() > 4*time.Hour {
			t.Fatalf("only %d heights after %v", cluster.committed, sched.Now())
		}
	}
	if len(cluster.Evidence()) == 0 {
		t.Fatal("the equivocating voter left no evidence: the run exercised nothing")
	}
}

// roundLog is a transport that records, per receiving node, the (height,
// round) of every consensus message delivered to it.
type roundLog struct {
	simnet.Transport
	seen map[simnet.NodeID]map[[2]uint64]bool
}

func (l *roundLog) Register(id simnet.NodeID, region simnet.Region, h simnet.Handler) error {
	seen := make(map[[2]uint64]bool)
	l.seen[id] = seen
	return l.Transport.Register(id, region, func(from simnet.NodeID, payload any) {
		switch msg := payload.(type) {
		case msgProposal:
			seen[[2]uint64{msg.Height, uint64(msg.Round)}] = true
		case msgVote:
			seen[[2]uint64{msg.Height, uint64(msg.Round)}] = true
		}
		h(from, payload)
	})
}

// TestOnVoteSteadyStateZeroAllocs pins the per-height tables' cost: once
// they have grown to one height's traffic, a new height's votes (first
// deliveries, duplicates and a conflicting twin) allocate nothing.
func TestOnVoteSteadyStateZeroAllocs(t *testing.T) {
	_, cluster, _ := newCluster(t, 10)
	v := cluster.validators[0]
	v.height = 1
	twin := msgVote{Kind: votePrevote, Height: 1, PayloadHash: [32]byte{0xEE}, From: 3}
	allocs := testing.AllocsPerRun(100, func() {
		// Reset as startHeight does, then stay below quorum so that no vote
		// is cast (and sent, which allocates) in reply.
		v.resetVotes()
		for from := 0; from < cluster.Quorum()-1; from++ {
			for _, kind := range []voteKind{votePrevote, votePrecommit} {
				vote := msgVote{Kind: kind, Height: 1, PayloadHash: [32]byte{0xAB}, From: from}
				v.onVote(vote)
				v.onVote(vote)
			}
		}
		v.onVote(twin)
		cluster.evidence = cluster.evidence[:0]
	})
	if allocs != 0 {
		t.Fatalf("steady-state onVote allocates %.1f times per height", allocs)
	}
}

// TestOnVoteRejectsUnknownKind: a vote whose kind is neither prevote nor
// precommit counts as a bad voter and touches no table — a kind-0 vote in
// particular cannot take its sender's proposal slot.
func TestOnVoteRejectsUnknownKind(t *testing.T) {
	_, cluster, _ := newCluster(t, 4)
	counters := metrics.NewCounters()
	cluster.Observe(counters)
	v := cluster.validators[0]
	v.height = 1
	for _, kind := range []voteKind{0, votePrecommit + 1, 255} {
		v.onVote(msgVote{Kind: kind, Height: 1, PayloadHash: [32]byte{1}, From: 1})
	}
	if got := counters.Get("byzantine.badvoter"); got != 3 {
		t.Fatalf("badvoter = %d, want 3", got)
	}
	if len(v.votes) != 0 || len(cluster.Evidence()) != 0 {
		t.Fatalf("unknown kinds opened %d rounds and left %d evidence", len(v.votes), len(cluster.Evidence()))
	}
}

// proposalKeeper is a recordingApp that keeps every payload it proposed
// together with a private copy of its bytes.
type proposalKeeper struct {
	*recordingApp
	proposed, copies [][]byte
}

func (a *proposalKeeper) Propose(height uint64) []byte {
	p := a.recordingApp.Propose(height)
	a.proposed = append(a.proposed, p)
	a.copies = append(a.copies, bytes.Clone(p))
	return p
}

// TestTamperingCopiesProposalPayload: neither WireTamper nor an equivocating
// proposer's twin changes a byte of the payload the app proposed — every
// honest validator is handed that one slice, payloadHash knows it by
// identity, and the proposing app compares decided payloads against it.
func TestTamperingCopiesProposalPayload(t *testing.T) {
	payload := []byte("an honest proposal")
	orig := bytes.Clone(payload)
	tamper := WireTamper()
	for seed := int64(0); seed < 50; seed++ {
		out, ok := tamper(rand.New(rand.NewSource(seed)), msgProposal{Payload: payload})
		got := out.(msgProposal).Payload
		if !ok || bytes.Equal(got, payload) {
			t.Fatalf("seed %d: the proposal was not tampered", seed)
		}
		if !bytes.Equal(payload, orig) || len(got) > 0 && &got[0] == &payload[0] {
			t.Fatalf("seed %d: the tampered copy shares the proposal's bytes", seed)
		}
	}

	sched := simclock.New()
	net := simnet.New(sched, simnet.Config{Seed: 3, Faults: simnet.LinkFaults{JitterFrac: 0.1, CorruptRate: 0.3}, Tamper: WireTamper()})
	app := &proposalKeeper{recordingApp: newRecordingApp()}
	ids := []simnet.NodeID{1, 2, 3, 4}
	regions := make([]simnet.Region, len(ids))
	cluster, err := NewCluster(sched, net, app, 5*time.Second, ids, regions)
	if err != nil {
		t.Fatal(err)
	}
	cluster.SetByzantine(1, ByzantineBehavior{EquivocateProposals: true})
	cluster.Start()
	sched.RunUntil(2 * time.Minute)
	if len(app.order) < 5 || len(cluster.Evidence()) == 0 || net.FaultStats().Corrupted == 0 {
		t.Fatalf("%d commits, %d evidence, %d corrupted: the run exercised too little",
			len(app.order), len(cluster.Evidence()), net.FaultStats().Corrupted)
	}
	for i, p := range app.proposed {
		if !bytes.Equal(p, app.copies[i]) {
			t.Fatalf("proposal %d was changed in place: %q, proposed %q", i, p, app.copies[i])
		}
	}
}

// TestPayloadHashGoesByIdentityNotContents: the memo may only ever answer
// for the very slice it hashed. A twin with other bytes — tampered on the
// wire, or an equivocating proposer's second version — is another array and
// must get its own hash, or equivocation would go unseen.
func TestPayloadHashGoesByIdentityNotContents(t *testing.T) {
	_, cluster, _ := newCluster(t, 4)
	honest := []byte("a proposal every honest validator is handed as one slice")
	for i := 0; i < 3; i++ {
		if got := cluster.payloadHash(honest); got != hashing.Sum(honest) {
			t.Fatalf("delivery %d: memoised hash differs from hashing.Sum", i)
		}
	}
	twin := append(append([]byte(nil), honest...), 0xDE, 0xAD)
	if got := cluster.payloadHash(twin); got != hashing.Sum(twin) {
		t.Fatal("a longer twin was answered from the memo")
	}
	flipped := append([]byte(nil), honest...)
	flipped[3] ^= 1
	if got := cluster.payloadHash(flipped); got != hashing.Sum(flipped) {
		t.Fatal("a same-length twin was answered from the memo")
	}
	if got := cluster.payloadHash(honest[:10]); got != hashing.Sum(honest[:10]) {
		t.Fatal("a prefix of the memoised array was answered from the memo")
	}
	if got := cluster.payloadHash(nil); got != hashing.Sum(nil) {
		t.Fatal("the empty payload hashes wrong")
	}
	if got := cluster.payloadHash(honest); got != hashing.Sum(honest) {
		t.Fatal("the memo did not recover after other payloads")
	}
}
