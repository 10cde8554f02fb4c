// Package tendermint implements the BFT consensus of the Burrow-like chain:
// a propose/prevote/precommit state machine with 2f+1 quorums and rotating
// proposers, executed by real validator processes exchanging messages over
// the simulated WAN (paper §II, §VI).
//
// The implementation captures the protocol structure that the paper's
// evaluation depends on — commit latency is one proposal broadcast plus two
// voting rounds over the inter-region latency distribution, and blocks are
// spaced by a configured interval (5 s in the experiments) — while omitting
// the full Tendermint locking rules needed against equivocating proposers
// (validators here are honest-or-crashed, the failure model the paper's
// cluster exhibits).
package tendermint

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"scmove/internal/hashing"
	"scmove/internal/metrics"
	"scmove/internal/simclock"
	"scmove/internal/simnet"
)

// App is the replicated application: the chain executor. Propose is invoked
// on the current proposer only; Commit exactly once per height, at the
// simulated time the first validator observes a precommit quorum.
type App interface {
	// Propose returns the payload (an encoded tx batch) for height. The
	// bytes are final: every validator is handed this slice, not a copy.
	Propose(height uint64) []byte
	// Commit applies the decided payload for height.
	Commit(height uint64, payload []byte)
}

// Round r of a height times out after min(proposeTimeout·(r+1),
// maxRoundTimeout) and hands over to the next proposer. The linear growth
// eventually outwaits WAN latency under crash faults; the cap keeps a long
// partition from driving the round count — and with it the timeout — so
// high that the cluster waits minutes before retrying after it heals.
const (
	proposeTimeout  = 2 * time.Second
	maxRoundTimeout = 30 * time.Second
)

// Cluster is one shard's validator set plus its replicated application.
// Consensus runs on every validator; the deterministic payload execution
// runs once, on the first commit observation (re-execution on the other
// validators would be byte-identical, so the simulation skips it).
type Cluster struct {
	// interval is the wait between a commit and the next proposal (the
	// paper configures 5 s).
	interval   time.Duration
	sched      *simclock.Scheduler
	net        simnet.Transport
	app        App
	validators []*Validator
	// committed is the highest committed height. Heights commit in order
	// (a validator only reaches height h after h-1 committed), so one number
	// says everything a per-height set would.
	committed uint64

	// The "byzantine.*" detection events, mirrored into the universe's
	// shared counter set once Observe has resolved them.
	equivocatedProposal, equivocatedVote, badProposer, badVoter metrics.Handle
	evidence                                                    []Evidence

	// hashed memoises the hash of the proposal payload seen last. On the
	// simulated network every honest copy of a proposal is the proposer's
	// own slice, so n validators hash a Move2 of tens of KiB once between
	// them. The memo goes by the slice's identity, never its contents: a
	// tampered or equivocating twin is another array and is hashed on its
	// own, as is each validator's decoded copy on the TCP path. Holding the
	// array's first byte keeps it from being freed and its address reused.
	hashed struct {
		first *byte
		len   int
		hash  hashing.Hash
	}
}

// payloadHash returns hashing.Sum(payload). The memo rests on nothing
// rewriting a proposal's bytes in place; under go test every memo hit
// re-hashes and panics if they were.
func (c *Cluster) payloadHash(payload []byte) hashing.Hash {
	if len(payload) == 0 {
		return hashing.Sum(payload)
	}
	m := &c.hashed
	if m.first != &payload[0] || m.len != len(payload) {
		m.first, m.len, m.hash = &payload[0], len(payload), hashing.Sum(payload)
	} else if testing.Testing() && hashing.Sum(payload) != m.hash {
		panic("tendermint: a proposal payload was rewritten in place after it was hashed")
	}
	return m.hash
}

// Evidence records one detected equivocation: a validator observed two
// conflicting messages from the same sender for the same (height, round).
// Detection is ignore-and-record — the conflicting message is discarded and
// consensus continues; it never stalls on a misbehaving peer.
type Evidence struct {
	// Proposal distinguishes proposal equivocation from vote equivocation.
	Proposal bool
	// Kind is the vote kind for vote equivocation (zero for proposals).
	Kind     voteKind
	Height   uint64
	Round    int
	From     int // equivocating validator index
	Detector int // validator that observed the conflict
}

// ByzantineBehavior switches on adversarial actions for one validator. The
// zero value is honest. Byzantine validators stay within the f < n/3 bound
// the protocol tolerates: they equivocate but cannot forge other
// validators' messages.
type ByzantineBehavior struct {
	// EquivocateProposals makes the validator, when it is the proposer,
	// send the honest payload to half its peers and a conflicting
	// (junk-extended, hence undecodable) twin to the other half.
	EquivocateProposals bool
	// EquivocateVotes makes the validator send conflicting prevotes and
	// precommits (genuine hash to half its peers, a flipped hash to the
	// rest).
	EquivocateVotes bool
}

// SetByzantine configures validator i's adversarial behavior.
func (c *Cluster) SetByzantine(i int, b ByzantineBehavior) {
	c.validators[i].byz = b
}

// Observe mirrors Byzantine-detection events ("byzantine.equivocation.*",
// "byzantine.badproposer") into the shared counter set.
func (c *Cluster) Observe(m *metrics.Counters) {
	c.equivocatedProposal = m.Handle("byzantine.equivocation.proposal")
	c.equivocatedVote = m.Handle("byzantine.equivocation.vote")
	c.badProposer = m.Handle("byzantine.badproposer")
	c.badVoter = m.Handle("byzantine.badvoter")
}

// Evidence returns all recorded equivocation evidence, in detection order.
func (c *Cluster) Evidence() []Evidence { return c.evidence }

func (c *Cluster) noteEquivocation(ev Evidence) {
	if ev.Proposal {
		c.equivocatedProposal.Inc()
	} else {
		c.equivocatedVote.Inc()
	}
	c.evidence = append(c.evidence, ev)
}

// NewCluster creates n validators on the given network nodes and regions,
// proposing a block every interval. Nodes must already be distinct ids;
// regions assigns each validator's placement.
func NewCluster(sched *simclock.Scheduler, net simnet.Transport, app App,
	interval time.Duration, ids []simnet.NodeID, regions []simnet.Region) (*Cluster, error) {
	if len(ids) == 0 || len(ids) != len(regions) {
		return nil, fmt.Errorf("tendermint: need matching ids and regions, got %d/%d", len(ids), len(regions))
	}
	c := &Cluster{interval: interval, sched: sched, net: net, app: app}
	c.validators = make([]*Validator, len(ids))
	for i, id := range ids {
		v := &Validator{cluster: c, id: id, index: i, n: len(ids)}
		c.validators[i] = v
		if err := net.Register(id, regions[i], func(from simnet.NodeID, payload any) {
			v.handle(payload)
		}); err != nil {
			return nil, fmt.Errorf("tendermint: register validator %d: %w", i, err)
		}
	}
	for i, v := range c.validators {
		v.peers = slices.Concat(ids[:i], ids[i+1:])
	}
	return c, nil
}

// Start launches consensus at height 1 on every validator.
func (c *Cluster) Start() {
	for _, v := range c.validators {
		v.startHeight(1)
	}
}

// Quorum returns the vote threshold (2f+1 out of n = 3f+1; for arbitrary n,
// the smallest integer strictly greater than 2n/3).
func (c *Cluster) Quorum() int { return 2*len(c.validators)/3 + 1 }

// CrashValidator stops a validator (it neither sends nor receives).
func (c *Cluster) CrashValidator(i int) {
	c.net.SetNodeDown(c.validators[i].id, true)
	c.validators[i].crashed = true
}

// RestartValidator revives a crashed validator: its volatile consensus
// state (votes, buffered messages) is lost, and it rejoins at the height
// after the highest commit the replicated application knows, catching up
// on the current height via its peers' traffic.
func (c *Cluster) RestartValidator(i int) {
	v := c.validators[i]
	if !v.crashed {
		return
	}
	c.net.SetNodeDown(v.id, false)
	v.crashed = false
	v.pending = nil
	v.startHeight(c.committed + 1) // resets the per-height vote tables
}

// ScheduleCrashRestart crashes validator i at simulated time `at` and
// restarts it at `restartAt` (restartAt ≤ at leaves it down).
func (c *Cluster) ScheduleCrashRestart(i int, at, restartAt time.Duration) {
	c.sched.At(at, func() { c.CrashValidator(i) })
	if restartAt > at {
		c.sched.At(restartAt, func() { c.RestartValidator(i) })
	}
}

// NodeIDs returns each validator's network node id, in validator order —
// fault schedules (partitions, crash-restarts) target these.
func (c *Cluster) NodeIDs() []simnet.NodeID {
	ids := make([]simnet.NodeID, len(c.validators))
	for i, v := range c.validators {
		ids[i] = v.id
	}
	return ids
}

// commit applies the payload once per height.
func (c *Cluster) commit(height uint64, payload []byte) {
	if height <= c.committed {
		return
	}
	c.committed = height
	c.app.Commit(height, payload)
}

// message kinds exchanged between validators.
type msgProposal struct {
	Height  uint64
	Round   int
	Payload []byte
	// From is the claimed sender index; receivers check it against the
	// round's legitimate proposer and use it to key equivocation evidence.
	From int
}

type voteKind uint8

const (
	votePrevote voteKind = iota + 1
	votePrecommit
)

type msgVote struct {
	Kind        voteKind
	Height      uint64
	Round       int
	PayloadHash hashing.Hash
	From        int
}

// roundVotes holds one round's share of a validator's vote tables at the
// current height.
type roundVotes struct {
	round int
	// seen has, per kind (0 = proposal, then votePrevote, votePrecommit) and
	// per sender, the slot that sender may speak in exactly once.
	seen [3][]slot
	// tally has, per vote kind, the vote sets of this round (proposals are
	// not tallied: tally[0] stays empty). A set is a count: seen admits each
	// sender's slot once, so every admitted first delivery is a distinct
	// voter, and a kind holds at most n hashes.
	tally [3][]hashCount
}

// slot remembers the first message hash seen in it; reported ensures each
// conflicting slot is converted to evidence at most once per detector, so a
// flood of conflicting copies cannot grow evidence unboundedly.
type slot struct {
	hash           hashing.Hash
	used, reported bool
}

type hashCount struct {
	hash  hashing.Hash
	count int
}

// open readies rv for round: empty slots, no vote sets. A record that held
// an earlier round keeps its storage; a new one gets 3n slots and room for
// 2n vote sets in one allocation each.
func (rv *roundVotes) open(round, n int) {
	rv.round = round
	if rv.seen[0] == nil {
		slots := make([]slot, 3*n)
		counts := make([]hashCount, 2*n)
		for k := range rv.seen {
			rv.seen[k] = slots[k*n : (k+1)*n : (k+1)*n]
		}
		rv.tally[votePrevote] = counts[:0:n]
		rv.tally[votePrecommit] = counts[n : n : 2*n]
		return
	}
	for k := range rv.seen {
		clear(rv.seen[k])
		rv.tally[k] = rv.tally[k][:0]
	}
}

// count returns the size of kind's vote set for h, first adding the voter
// whose first delivery this is.
func (rv *roundVotes) count(kind voteKind, h hashing.Hash, first bool) int {
	sets := rv.tally[kind]
	i := 0
	for i < len(sets) && sets[i].hash != h {
		i++
	}
	if i == len(sets) {
		sets = append(sets, hashCount{hash: h})
		rv.tally[kind] = sets
	}
	if first {
		sets[i].count++
	}
	return sets[i].count
}

// Validator is one consensus participant.
type Validator struct {
	cluster *Cluster
	id      simnet.NodeID
	index   int
	n       int
	crashed bool
	// peers is every other validator's node id, in validator order: the
	// recipients of each broadcast.
	peers []simnet.NodeID

	height       uint64
	round        int
	proposal     []byte
	proposalHash hashing.Hash
	hasProposal  bool
	prevoted     bool
	precommitted bool
	decided      bool

	// votes holds the vote tables of the current height, one entry per
	// round a message was admitted in — usually one. onProposal and onVote
	// drop every message of another height before consulting them (future
	// heights wait in pending), so startHeight truncates votes, keeping each
	// entry's storage for the next height: the tables hold 3n slots per
	// round seen at this height, nothing of chain history.
	votes   []roundVotes
	pending []any // messages for heights/rounds not yet started
	byz     ByzantineBehavior
}

// roundVotes returns the tables of round at the current height, opening
// them on first use.
func (v *Validator) roundVotes(round int) *roundVotes {
	for i := range v.votes {
		if v.votes[i].round == round {
			return &v.votes[i]
		}
	}
	v.votes = slices.Grow(v.votes, 1)[:len(v.votes)+1]
	rv := &v.votes[len(v.votes)-1]
	rv.open(round, v.n)
	return rv
}

// noteFirstSeen enforces one-message-per-slot at the current height: the
// first hash in a slot is remembered, identical re-deliveries (network
// duplicates) pass, and a conflicting hash records equivocation evidence
// and is rejected. first reports the delivery that opened the slot. from
// must be a validator index.
func (v *Validator) noteFirstSeen(rv *roundVotes, kind voteKind, from int, h hashing.Hash) (ok, first bool) {
	s := &rv.seen[kind][from]
	if !s.used {
		*s = slot{hash: h, used: true}
		return true, true
	}
	if s.hash == h {
		return true, false
	}
	if !s.reported {
		s.reported = true
		v.cluster.noteEquivocation(Evidence{
			Proposal: kind == 0, Kind: kind,
			Height: v.height, Round: rv.round,
			From: from, Detector: v.index,
		})
	}
	return false, false
}

// resetVotes empties the per-height tables, keeping their storage: the next
// height's votes land in the slots this one opened.
func (v *Validator) resetVotes() {
	v.votes = v.votes[:0]
}

// proposerIndex implements round-robin proposer rotation.
func proposerIndex(height uint64, round, n int) int {
	return int((height + uint64(round)) % uint64(n))
}

func (v *Validator) startHeight(h uint64) {
	if v.crashed {
		return
	}
	v.height = h
	v.round = 0
	v.resetVotes()
	v.startRound()
}

// drainPending replays buffered messages that have become current.
func (v *Validator) drainPending() {
	pending := v.pending
	v.pending = nil
	for _, msg := range pending {
		v.handle(msg)
	}
}

func (v *Validator) startRound() {
	v.proposal = nil
	v.hasProposal = false
	v.prevoted = false
	v.precommitted = false
	v.decided = false

	if proposerIndex(v.height, v.round, v.n) == v.index {
		payload := v.cluster.app.Propose(v.height)
		msg := msgProposal{Height: v.height, Round: v.round, Payload: payload, From: v.index}
		if v.byz.EquivocateProposals {
			// Conflicting twin: the honest payload extended with junk, sent
			// alongside the genuine proposal to half the peers. Whichever
			// copy arrives first wins that peer's prevote, the second is
			// recorded as equivocation evidence; at worst the split vote
			// costs this round and the timeout rotates to an honest
			// proposer — safety is never at risk, only latency.
			twin := msg
			twin.Payload = append(append([]byte(nil), payload...), 0xDE, 0xAD, byte(v.height))
			v.broadcastEquivocating(msg, twin)
			v.handle(msg)
		} else {
			v.broadcast(msg)
			v.handle(msg) // deliver to self
		}
	}
	// Round timeout: if this round does not decide in time, try the next
	// proposer.
	height, round := v.height, v.round
	timeout := min(proposeTimeout*time.Duration(round+1), maxRoundTimeout)
	v.cluster.sched.After(timeout, func() {
		if v.crashed || v.decided || v.height != height || v.round != round {
			return
		}
		v.round++
		v.startRound()
	})
	v.drainPending()
}

func (v *Validator) broadcast(msg any) {
	v.cluster.net.Broadcast(v.id, v.peers, msg)
}

// broadcastEquivocating sends the genuine message to every peer and the
// conflicting twin as an extra message to odd-indexed peers. Sending both
// to the same receivers is what makes the conflict observable — and
// convertible to evidence — rather than a silent split vote. It stays a
// Send per message: the genuine/twin interleaving per peer is part of what
// the Byzantine digests pin.
func (v *Validator) broadcastEquivocating(genuine, twin any) {
	for _, other := range v.cluster.validators {
		if other.index == v.index {
			continue
		}
		v.cluster.net.Send(v.id, other.id, genuine)
		if other.index%2 == 1 {
			v.cluster.net.Send(v.id, other.id, twin)
		}
	}
}

// castVote broadcasts a vote and delivers it to self; a vote-equivocating
// validator also sends a conflicting hash to half its peers.
func (v *Validator) castVote(vote msgVote) {
	if v.byz.EquivocateVotes {
		twin := vote
		twin.PayloadHash[0] ^= 0xFF
		v.broadcastEquivocating(vote, twin)
		v.onVote(vote)
		return
	}
	v.broadcast(vote)
	v.onVote(vote)
}

// catchUp simulates block sync: a validator that sees traffic for a future
// height while its own height has already committed cluster-wide jumps
// forward (a real node would fetch the missed blocks from its peers).
// Without this, a validator whose quorum votes were lost to the WAN stalls
// behind forever and erodes the quorum at the current height — under
// message loss the cluster would grind to a halt within a few blocks.
func (v *Validator) catchUp(msgHeight uint64) {
	if v.decided || msgHeight <= v.height || v.height == 0 || v.height > v.cluster.committed {
		return
	}
	v.startHeight(v.cluster.committed + 1)
}

func (v *Validator) handle(payload any) {
	if v.crashed {
		return
	}
	switch msg := payload.(type) {
	case msgProposal:
		v.catchUp(msg.Height)
		if msg.Height > v.height || (msg.Height == v.height && msg.Round > v.round) {
			v.pending = append(v.pending, msg)
			return
		}
		v.onProposal(msg)
	case msgVote:
		v.catchUp(msg.Height)
		if msg.Height > v.height {
			v.pending = append(v.pending, msg)
			return
		}
		v.onVote(msg)
	}
}

func (v *Validator) onProposal(msg msgProposal) {
	if msg.Height != v.height || msg.Round != v.round {
		return
	}
	// Only the round's legitimate proposer may propose; anything else is a
	// forged injection (record and ignore, never stall).
	if msg.From < 0 || msg.From >= v.n || proposerIndex(msg.Height, msg.Round, v.n) != msg.From {
		v.cluster.badProposer.Inc()
		return
	}
	h := v.cluster.payloadHash(msg.Payload)
	if ok, _ := v.noteFirstSeen(v.roundVotes(msg.Round), 0, msg.From, h); !ok {
		return
	}
	if v.hasProposal {
		return
	}
	v.proposal = msg.Payload
	v.proposalHash = h
	v.hasProposal = true
	if !v.prevoted {
		v.prevoted = true
		v.castVote(msgVote{
			Kind: votePrevote, Height: v.height, Round: v.round,
			PayloadHash: v.proposalHash, From: v.index,
		})
	}
}

func (v *Validator) onVote(msg msgVote) {
	if msg.Height != v.height {
		return
	}
	if msg.From < 0 || msg.From >= v.n || (msg.Kind != votePrevote && msg.Kind != votePrecommit) {
		v.cluster.badVoter.Inc()
		return
	}
	// One vote of each kind per (height, round, sender): a conflicting
	// double-vote is recorded as equivocation evidence and excluded from
	// quorum counting, so a Byzantine voter cannot help two different
	// payloads toward quorum in the same round.
	rv := v.roundVotes(msg.Round)
	ok, first := v.noteFirstSeen(rv, msg.Kind, msg.From, msg.PayloadHash)
	if !ok {
		return
	}
	// A duplicate re-evaluates the quorum too: the proposal may have arrived
	// after the vote that completed it.
	votes := rv.count(msg.Kind, msg.PayloadHash, first)
	quorum := v.cluster.Quorum()

	switch msg.Kind {
	case votePrevote:
		if votes >= quorum && v.hasProposal && msg.PayloadHash == v.proposalHash && !v.precommitted {
			v.precommitted = true
			v.castVote(msgVote{
				Kind: votePrecommit, Height: v.height, Round: msg.Round,
				PayloadHash: v.proposalHash, From: v.index,
			})
		}
	case votePrecommit:
		if votes >= quorum && v.hasProposal && msg.PayloadHash == v.proposalHash && !v.decided {
			v.decided = true
			v.cluster.commit(v.height, v.proposal)
			height := v.height
			v.cluster.sched.After(v.cluster.interval, func() {
				if !v.crashed && v.height == height {
					v.startHeight(height + 1)
				}
			})
		}
	}
}

// WireTamper returns a simnet payload tamper for consensus traffic:
// proposals get their payload bytes corrupted with simnet.DefaultTamper and
// votes get a flipped payload-hash byte; other message kinds pass through
// untouched. Hardened validators must survive both — corrupted proposals
// split the prevote (healed by the round timeout) and corrupted votes look
// like equivocation by the claimed sender (recorded, ignored).
func WireTamper() simnet.PayloadTamper {
	return func(rng *rand.Rand, payload any) (any, bool) {
		switch msg := payload.(type) {
		case msgProposal:
			msg.Payload = simnet.DefaultTamper(rng, msg.Payload)
			return msg, true
		case msgVote:
			msg.PayloadHash[rng.Intn(len(msg.PayloadHash))] ^= byte(1 + rng.Intn(255))
			return msg, true
		}
		return payload, false
	}
}
