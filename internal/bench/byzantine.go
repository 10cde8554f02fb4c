package bench

import (
	"fmt"
	"time"

	"scmove/internal/chain"
	"scmove/internal/contracts"
	"scmove/internal/core"
	"scmove/internal/hashing"
	"scmove/internal/metrics"
	"scmove/internal/relay"
	"scmove/internal/simnet"
	"scmove/internal/types"
	"scmove/internal/u256"
	"scmove/internal/universe"
)

// ByzantineConfig tunes the Byzantine chaos cell: cross-chain moves on the
// paper's IBC deployment while every message path corrupts bytes in flight,
// a validator equivocates, and an adversarial client replays and forges
// Move2 payloads.
type ByzantineConfig struct {
	// CorruptRate is the per-message probability of in-flight tampering
	// (bit flips, truncation, extension) on the WAN, submission, and
	// header-relay paths alike.
	CorruptRate float64
	// DropRate / DupRate add message loss and duplication on every path.
	DropRate float64
	DupRate  float64
	// Equivocators is how many validators of each BFT cluster send
	// conflicting proposals and votes (keep it within the fault budget f).
	Equivocators int
	// Seed drives every fault RNG; the same seed reproduces the run exactly.
	Seed int64
	// Moves is how many back-and-forth moves to drive; after each one the
	// adversary replays the genuine Move2 payload and submits a forged
	// variant against the target chain.
	Moves int
	// Metrics switches on the observability registry.
	Metrics bool
}

// DefaultByzantineConfig is the headline Byzantine scenario: 5% corruption
// and 5% drops everywhere, one equivocating validator, an adversary
// replaying and forging every move's proof.
func DefaultByzantineConfig() ByzantineConfig {
	return ByzantineConfig{
		CorruptRate:  0.05,
		DropRate:     0.05,
		DupRate:      0.05,
		Equivocators: 1,
		Seed:         4242,
		Moves:        3,
	}
}

// ByzantineResult reports one Byzantine chaos run.
type ByzantineResult struct {
	Config  ByzantineConfig
	Latency []time.Duration
	// HostileRejected counts adversarial Move2 submissions (replays of the
	// genuine payload plus forged-proof variants) the target chain rejected.
	// RunByzantine fails if any of them is accepted, so on success this is
	// exactly 2×Moves.
	HostileRejected int
	// Roots is every chain's final state root, in configuration order.
	Roots []string
	// Counters is the shared fault/recovery/byzantine counter table.
	Counters map[string]uint64
	counters *metrics.Counters
	// Registry holds stage histograms and gauges; nil unless Metrics/Trace.
	Registry *metrics.Registry
}

// RunByzantine drives cfg.Moves moves of a Store contract between the two
// chains of the paper's deployment while the network corrupts bytes, a
// validator equivocates, and an adversarial client attacks the Move
// protocol, then checks the run's safety invariants:
//
//   - every genuine move completes despite the hostile environment;
//   - every replayed and every forged Move2 is rejected;
//   - equivocation is detected (evidence counters move) yet never stalls
//     consensus;
//   - corrupted messages are observed (corruption counters move) and every
//     rejection is accounted;
//   - a forged conflicting header for a confirmed height is ignored by the
//     light client (the header-conflict counter moves).
//
// Any violation returns an error; the caller gets a result whose
// fingerprint is byte-identical across GOMAXPROCS and same-seed re-runs.
func RunByzantine(cfg ByzantineConfig) (*ByzantineResult, error) {
	ucfg := universe.DefaultConfig(2)
	ucfg.Metrics = cfg.Metrics
	faults := simnet.LinkFaults{
		DropRate:    cfg.DropRate,
		DupRate:     cfg.DupRate,
		CorruptRate: cfg.CorruptRate,
		JitterFrac:  0.1,
	}
	ucfg.Chaos = &universe.ChaosConfig{
		WAN:          faults,
		Submit:       faults,
		HeaderRelay:  faults,
		Seed:         cfg.Seed,
		Equivocators: cfg.Equivocators,
	}
	u, err := universe.New(ucfg)
	if err != nil {
		return nil, err
	}
	if inspectUniverse != nil {
		inspectUniverse(u)
	}
	u.Start()
	cl, adv := u.Client(0), u.Client(1)

	store, err := u.MustDeploy(cl, u.Chain(2), contracts.StoreName,
		contracts.StoreConstructorArgs(cl.Address(), 10), u256.Zero(), 30*time.Minute)
	if err != nil {
		return nil, fmt.Errorf("byzantine deploy: %w", err)
	}

	res := &ByzantineResult{Config: cfg, counters: u.Counters(), Registry: u.Metrics()}
	from, to := hashing.ChainID(2), hashing.ChainID(1)
	for i := 0; i < cfg.Moves; i++ {
		m := u.Mover(from, to)
		var result *relay.MoveResult
		m.Move(cl, store, core.MoveToInput(to), func(r *relay.MoveResult) { result = r })
		if !u.RunUntil(func() bool { return result != nil }, 2*time.Hour) {
			return nil, fmt.Errorf("byzantine move %d (%s->%s): did not finish", i+1, from, to)
		}
		if result.Err != nil {
			return nil, fmt.Errorf("byzantine move %d (%s->%s): %w", i+1, from, to, result.Err)
		}
		res.Latency = append(res.Latency, result.Total())

		// The genuine move is done; now attack its proof. The journal holds
		// the exact payload that just recreated the contract on the target.
		entry, ok := m.Journal().Entry(store)
		if !ok || entry.Payload == nil {
			return nil, fmt.Errorf("byzantine move %d: journal lost the proof payload", i+1)
		}
		// Replay the genuine payload verbatim: the target's move-nonce
		// check (Fig. 2) must reject the duplicate recreation.
		if err := submitHostileMove2(u, adv, u.Chain(to), entry.Payload, "replayed"); err != nil {
			return nil, fmt.Errorf("byzantine move %d: %w", i+1, err)
		}
		res.HostileRejected++
		// Forge the proof: same payload with one proof byte flipped must
		// fail Merkle verification against the trusted root.
		forged := *entry.Payload
		forged.AccountProof = append([]byte(nil), entry.Payload.AccountProof...)
		if len(forged.AccountProof) == 0 {
			return nil, fmt.Errorf("byzantine move %d: empty account proof", i+1)
		}
		forged.AccountProof[len(forged.AccountProof)/2] ^= 0x40
		if err := submitHostileMove2(u, adv, u.Chain(to), &forged, "forged"); err != nil {
			return nil, fmt.Errorf("byzantine move %d: %w", i+1, err)
		}
		res.HostileRejected++

		from, to = to, from
	}

	// A Byzantine relayer re-sends an old header of the PoW chain with a
	// forged state root for a long-confirmed height: the BFT chain's light
	// client must keep the root it already vouched for.
	if err := injectConflictingHeader(u); err != nil {
		return nil, err
	}

	res.Counters = u.Counters().Snapshot()
	for _, id := range u.ChainIDs() {
		res.Roots = append(res.Roots, fmt.Sprintf("%s=%s", id, u.Chain(id).Head().StateRoot))
	}

	// Safety invariants of the cell.
	if cfg.CorruptRate > 0 && res.Counters["byzantine.corrupted"] == 0 {
		return nil, fmt.Errorf("byzantine: corruption enabled but no message was ever corrupted")
	}
	if cfg.Equivocators > 0 && res.Counters["byzantine.equivocation.vote"] == 0 {
		return nil, fmt.Errorf("byzantine: equivocating validator produced no vote evidence")
	}
	if res.Counters["byzantine.header.conflict"] == 0 {
		return nil, fmt.Errorf("byzantine: forged confirmed header raised no conflict")
	}
	if loc := u.Chain(1).StateDB().GetLocation(store); cfg.Moves%2 == 1 && loc != 1 {
		return nil, fmt.Errorf("byzantine: contract location = %s, want 1", loc)
	}
	return res, nil
}

// submitHostileMove2 signs the payload with the adversary's key and submits
// it until a receipt lands (resubmitting through the lossy link), then
// demands rejection.
func submitHostileMove2(u *universe.Universe, adv *relay.Client, target *chain.Chain,
	payload *types.Move2Payload, kind string) error {
	tx := adv.SignedMove2(target, payload)
	id := tx.ID()
	deadline := u.Sched.Now() + 30*time.Minute
	for {
		adv.SubmitSigned(target, tx)
		ok := u.RunUntil(func() bool {
			_, found := target.Receipt(id)
			return found
		}, 30*time.Second)
		if ok {
			break
		}
		if u.Sched.Now() >= deadline {
			return fmt.Errorf("%s move2 never got a receipt", kind)
		}
	}
	rec, _ := target.Receipt(id)
	if rec.Succeeded() {
		return fmt.Errorf("%s move2 was ACCEPTED by %s", kind, target.ChainID())
	}
	return nil
}

// injectConflictingHeader forges a conflicting header for a confirmed PoW
// height in the BFT chain's light client and verifies it is ignored.
func injectConflictingHeader(u *universe.Universe) error {
	dst := u.Chain(2) // its light client tracks chain 1
	hs := dst.Headers()
	head := hs.Head(1)
	var target uint64
	for h := head; h > 0; h-- {
		if hs.ConfirmedAt(1, h) {
			target = h
			break
		}
	}
	if target == 0 {
		return fmt.Errorf("byzantine: no confirmed PoW height to attack")
	}
	genuine, ok := u.Chain(1).HeaderAt(target)
	if !ok {
		return fmt.Errorf("byzantine: source chain lost header %d", target)
	}
	root, err := hs.TrustedStateRoot(1, target)
	if err != nil {
		return fmt.Errorf("byzantine: confirmed height %d has no trusted root: %w", target, err)
	}
	forged := *genuine
	forged.StateRoot[0] ^= 0xFF
	if err := hs.Update(1, []*types.Header{&forged}, head); err != nil {
		return fmt.Errorf("byzantine: header injection errored: %w", err)
	}
	after, err := hs.TrustedStateRoot(1, target)
	if err != nil {
		return fmt.Errorf("byzantine: trusted root lost after forged header: %w", err)
	}
	if after != root {
		return fmt.Errorf("byzantine: forged header OVERWROTE a confirmed root")
	}
	return nil
}

// String renders the per-move latencies, attack tally, and counter table.
func (r *ByzantineResult) String() string {
	out := fmt.Sprintf("Byzantine chaos: %d moves under %.0f%% corruption + %.0f%% drop + %.0f%% duplication, %d equivocator(s) (seed %d)\n",
		r.Config.Moves, r.Config.CorruptRate*100, r.Config.DropRate*100,
		r.Config.DupRate*100, r.Config.Equivocators, r.Config.Seed)
	lat := metrics.NewTable("move", "total latency")
	for i, d := range r.Latency {
		lat.AddRow(fmt.Sprintf("%d", i+1), fmtDur(d))
	}
	out += lat.String()
	out += fmt.Sprintf("\nHostile Move2 submissions rejected: %d (every replay and forgery)\n", r.HostileRejected)
	out += "\nFinal state roots\n"
	for _, root := range r.Roots {
		out += "  " + root + "\n"
	}
	out += "\nFault, recovery, and byzantine counters\n"
	out += r.counters.String()
	if rep := r.Registry.Report(); rep != "" {
		out += "\n" + rep
	}
	return out
}
