package main

import (
	"encoding/binary"
	"fmt"
	"os"
	"time"

	"scmove/internal/contracts"
	"scmove/internal/evm"
	"scmove/internal/hashing"
	"scmove/internal/relay"
	"scmove/internal/state"
	"scmove/internal/state/backend"
	"scmove/internal/u256"
	"scmove/internal/universe"
)

// moveRate caps the Moves at moveRate x seconds. Every block a chain ever
// committed stays in memory with its Move2 payloads, so resident memory
// follows the Move count; with the cap binding on a host as fast as the
// reference one, peak_rss_mb does not depend on how fast the run went.
const moveRate = 60

// moveParams sizes move_store.
type moveParams struct {
	// sizes lists the population: one Store-N contract per entry.
	sizes []uint64
	// timed is the N whose MoveAndWait wall time is the latency sample.
	timed uint64
	// exact is how many leading Moves the exact simulated metrics and the
	// repeat signature cover; the phase runs at least that many.
	exact int
	// setups is how many times the set-up runs (the median is reported).
	setups int
	// replay is every payload class of the population, for the layer replay.
	replay []moveClass
}

func moveParamsFor(o options) moveParams {
	if o.smoke {
		return moveParams{sizes: []uint64{10, 200, 200, 400}, timed: 200, exact: 6, setups: 1,
			replay: []moveClass{{10, 1}, {200, 2}, {400, 1}}}
	}
	p := moveParams{timed: 1000, exact: 256, setups: 3,
		replay: []moveClass{{10, 4}, {1000, 6}, {1900, 3}}}
	for i := 0; i < 4; i++ {
		p.sizes = append(p.sizes, 10, 1000, 1000, 1900)
	}
	return p
}

// storeSlot mirrors contracts.Store's slot layout (the i-th variable's key
// and the value OnCreate derives for it), which the read-back check needs.
func storeSlot(i uint64) (key, value evm.Word) {
	key[0] = 0x01
	binary.BigEndian.PutUint64(key[24:], i)
	return key, evm.Word(hashing.Sum(key[:]))
}

// moveUniverse is one deployed move_store population.
type moveUniverse struct {
	u     *universe.Universe
	dir   string
	cl    *relay.Client
	addrs []hashing.Address
	loc   []hashing.ChainID
}

func (m *moveUniverse) close() error {
	err := m.u.Close()
	if rmErr := os.RemoveAll(m.dir); err == nil {
		err = rmErr
	}
	return err
}

// newMoveUniverse builds the paper's two-chain deployment (Ethereum-like
// MPT p=6, Burrow-like IAVL p=2) on the file backend with at most four
// resident storage trees, and deploys the Store population on chain 1.
func newMoveUniverse(o options, p moveParams, traced bool) (*moveUniverse, error) {
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.workDir, "move-store-*")
	if err != nil {
		return nil, err
	}
	cfg := universe.DefaultConfig(1)
	cfg.State = state.Options{Backend: backend.KindFile, Dir: dir, StorageTreeLimit: 4}
	cfg.Metrics, cfg.Trace = traced, traced
	for i := range cfg.Specs {
		// The largest Store writes all its slots in one transaction.
		cfg.Specs[i].Config.BlockGasLimit = 2_000_000_000
	}
	u, err := universe.New(cfg)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	m := &moveUniverse{u: u, dir: dir, cl: u.Client(0)}
	u.Start()
	home := u.ChainIDs()[0]
	for _, n := range p.sizes {
		addr, err := u.MustDeploy(m.cl, u.Chain(home), contracts.StoreName,
			contracts.StoreConstructorArgs(m.cl.Address(), n), u256.Zero(), 30*time.Minute)
		if err != nil {
			m.close()
			return nil, fmt.Errorf("deploy Store-%d: %w", n, err)
		}
		m.addrs = append(m.addrs, addr)
		m.loc = append(m.loc, home)
	}
	return m, nil
}

// checkStores reads every slot of every contract back through StaticCall
// on the chain that hosts it, and checks the location field Lc on both
// chains: the host names itself, the other chain's stale copy (if the
// contract ever lived there) names the host.
func (m *moveUniverse) checkStores(ph *phase, p moveParams) {
	ids := m.u.ChainIDs()
	for k, addr := range m.addrs {
		host := m.u.Chain(m.loc[k])
		for i := uint64(0); i < p.sizes[k]; i++ {
			_, want := storeSlot(i)
			got, err := host.StaticCall(m.cl.Address(), addr, contracts.EncodeCall("get", contracts.ArgUint(i)))
			if err != nil || evm.Word(got) != want {
				ph.failf("Store-%d #%d slot %d on %s: %x (%v), want %x", p.sizes[k], k, i, m.loc[k], got, err, want)
				break
			}
		}
		for _, id := range ids {
			acct, ok := m.u.Chain(id).StateDB().GetAccount(addr)
			if id == m.loc[k] && !ok {
				ph.failf("Store #%d missing on its host %s", k, id)
			}
			if ok && acct.Location != m.loc[k] {
				ph.failf("Store #%d on %s: Lc = %s, want %s", k, id, acct.Location, m.loc[k])
			}
		}
	}
}

func runMoveStore(o options, tr *tracer) (*phase, error) {
	p := moveParamsFor(o)
	ph := newPhase()
	var m *moveUniverse
	for i := 0; i < p.setups; i++ {
		start := time.Now()
		next, err := newMoveUniverse(o, p, tr != nil)
		if err != nil {
			return nil, err
		}
		ph.setups = append(ph.setups, time.Since(start))
		tr.add(int64(i), 0, "universe.new+deploy", start, time.Now())
		if m != nil {
			if err := m.close(); err != nil {
				return nil, err
			}
		}
		m = next
	}
	defer m.close() //nolint:errcheck // temp-dir cleanup; nothing is read back after the check

	ids := m.u.ChainIDs()
	other := func(id hashing.ChainID) hashing.ChainID {
		if id == ids[0] {
			return ids[1]
		}
		return ids[0]
	}
	// The order is one seeded permutation of the population after the other,
	// and each permutation is measured as a round of its own: every round
	// does the same work, so the medians over rounds shed the rounds a
	// collection, a compaction or the host disturbed.
	order := moveOrder(o.seed, len(m.addrs), max(p.exact, int(moveRate*o.seconds)))
	var results []*relay.MoveResult
	var timedWall []float64
	span := time.Duration(o.seconds * float64(time.Second))
	simStart := m.u.Sched.Now()
	began := time.Now()
	for len(results) < len(order) && (len(results) < p.exact || time.Since(began) < span) {
		chunk := order[len(results):min(len(results)+len(m.addrs), len(order))]
		rd, err := measureRound(func() (int, error) {
			for _, k := range chunk {
				n := len(results)
				src, dst := m.loc[k], other(m.loc[k])
				start := time.Now()
				res, err := m.u.MoveAndWait(m.cl, src, dst, m.addrs[k], 30*time.Minute)
				end := time.Now()
				if err != nil {
					return 0, fmt.Errorf("move %d (Store-%d #%d %s->%s): %w", n, p.sizes[k], k, src, dst, err)
				}
				tr.add(int64(n), 0, fmt.Sprintf("MoveAndWait.store%d", p.sizes[k]), start, end)
				m.loc[k] = dst
				results = append(results, res)
				if p.sizes[k] == p.timed {
					timedWall = append(timedWall, ms(end.Sub(start)))
				}
			}
			return len(chunk), nil
		})
		if err != nil {
			return nil, err
		}
		ph.rounds = append(ph.rounds, rd)
	}
	wall := time.Since(began)
	ph.peak = peakRSSMiB()
	ph.attempted = len(results)
	ph.waits, ph.waitWhat = timedWall, fmt.Sprintf("wall time of one MoveAndWait of a Store-%d", p.timed)
	simElapsed := m.u.Sched.Now() - simStart

	m.checkStores(ph, p)

	// Exact simulated metrics over the first p.exact Moves, which every run
	// of this seed performs.
	var total, move1, pwait, move2 []float64
	h := hashing.NewHasher(p.exact * 48)
	for n, res := range results[:p.exact] {
		total = append(total, res.Total().Seconds())
		move1 = append(move1, res.Move1Latency().Seconds())
		pwait = append(pwait, res.WaitProofLatency().Seconds())
		move2 = append(move2, res.Move2Latency().Seconds())
		for _, v := range []uint64{uint64(order[n]), uint64(res.StartedAt), uint64(res.Move1At),
			uint64(res.ProofReadyAt), uint64(res.Move2At), res.Move1Gas, res.Move2Gas} {
			h.Uvarint(v)
		}
	}
	sum := h.Sum()
	ph.sig = fmt.Sprintf("first %d moves: sim_move_s_p50=%v digest=%x", p.exact, median(total), sum[:8])
	ph.notef("%s", ph.sig)
	p95, used := tail(timedWall, 0.95)
	ph.notef("Store-%d MoveAndWait: n=%d p50=%.3f ms p%g=%.3f ms", p.timed, len(timedWall), median(timedWall), used*100, p95)
	ph.extra["e2e.move_p50_ms"] = median(timedWall)
	ph.extra["e2e.move_p95_ms"] = p95
	ph.extra["e2e.sim_move_s_p50"] = median(total)
	ph.extra["relay.move1_sim_s_p50"] = median(move1)
	ph.extra["relay.p_wait_sim_s_p50"] = median(pwait)
	ph.extra["relay.move2_sim_s_p50"] = median(move2)
	cs := m.u.Counters()
	ph.extra["relay.retries"] = float64(cs.Get("relay.move1_retries") + cs.Get("relay.move2_retries"))
	ph.extra["simclock.sim_s_per_wall_s"] = simElapsed.Seconds() / wall.Seconds()
	if delivered, _ := m.u.Net.Stats(); delivered > 0 {
		// Only the Burrow-like chain runs BFT consensus over the simulated WAN.
		ph.extra["tendermint.msgs_per_block"] = float64(delivered) / float64(max(m.u.Chain(ids[1]).Head().Height, 1))
	}
	if tr != nil {
		layers, err := replayMoveLayers(tr, p.replay)
		if err != nil {
			return nil, fmt.Errorf("move layer replay: %w", err)
		}
		budgetMove(ph, median(timedWall)*1000, p.timed, layers)
	}
	return ph, nil
}
