package shard

import (
	"slices"

	"scmove/internal/chain"
	"scmove/internal/core"
	"scmove/internal/hashing"
	"scmove/internal/metrics"
	"scmove/internal/relay"
	"scmove/internal/simclock"
	"scmove/internal/types"
)

// Config wires an Engine. The engine takes the pieces it needs explicitly —
// chains, a mover factory, per-contract owner clients — rather than a
// universe handle, so it composes with any harness and imports no wiring
// packages.
type Config struct {
	// Clock is the universe's scheduler: ticks, move submissions, and
	// location updates are events on it.
	Clock *simclock.Scheduler
	// Chains lists the shards in configuration order.
	Chains []*chain.Chain
	// Mover returns a relayer between two shards (universe.Mover, which
	// builds the pair's header relays on first use).
	Mover func(src, dst hashing.ChainID) *relay.Mover
	// Home resolves a transaction sender to its home chain, feeding the
	// affinity signal.
	Home func(addr hashing.Address) (hashing.ChainID, bool)
	// Counters, when set, receives shard.* event counts.
	Counters *metrics.Counters
	// Registry, when set, receives the shard.moving gauge.
	Registry *metrics.Registry
}

// Stats summarizes an engine's activity.
type Stats struct {
	Ticks     uint64
	Issued    uint64
	Completed uint64
	Failed    uint64
}

// Engine watches traffic and congestion across a universe's shards and
// migrates tracked contracts per its policy. All state is touched only
// from scheduler events (ticks and block listeners), so the engine needs no
// locking.
type Engine struct {
	cfg Config
	pol *policy
	// shards holds each chain's id and MaxBlockTxs, in configuration
	// order; a snapshot copies it and fills in the pool depths.
	shards []chainLoad

	loc     map[hashing.Address]hashing.ChainID
	owner   map[hashing.Address]*relay.Client
	tracked []hashing.Address // registration order — the policy's iteration order
	window  map[hashing.Address]*contractLoad
	moving  map[hashing.Address]bool

	stats Stats
}

// New builds an engine and registers its block listeners; call Track for
// each managed contract, then Start.
func New(cfg Config) *Engine {
	e := &Engine{
		cfg:    cfg,
		pol:    newPolicy(),
		loc:    make(map[hashing.Address]hashing.ChainID),
		owner:  make(map[hashing.Address]*relay.Client),
		window: make(map[hashing.Address]*contractLoad),
		moving: make(map[hashing.Address]bool),
	}
	for _, c := range cfg.Chains {
		e.shards = append(e.shards, chainLoad{id: c.ChainID(), maxTxs: c.Config().MaxBlockTxs})
		c.OnBlock(e.observe)
	}
	return e
}

// observe folds one committed block into the contracts' traffic windows.
func (e *Engine) observe(b *types.Block, _ []*types.Receipt) {
	for _, tx := range b.Txs {
		if tx.Kind != types.TxCall {
			continue
		}
		cw, ok := e.window[tx.To]
		if !ok {
			continue
		}
		cw.total++
		if sender, err := tx.Sender(); err == nil {
			if home, ok := e.cfg.Home(sender); ok {
				cw.byHome[home]++
			}
		}
	}
}

// Track registers a contract the engine may migrate: where it lives now
// and the client that owns it (moveTo is owner-gated, so migrations are
// submitted by the owner).
func (e *Engine) Track(contract hashing.Address, home hashing.ChainID, owner *relay.Client) {
	if _, ok := e.loc[contract]; ok {
		return
	}
	e.loc[contract] = home
	e.owner[contract] = owner
	e.tracked = append(e.tracked, contract)
	e.window[contract] = &contractLoad{
		contract: contract,
		byHome:   make(map[hashing.ChainID]uint64, len(e.shards)),
	}
}

// Location returns where the engine believes a contract lives. During a
// migration it still reports the source chain — callers racing a move see
// their transactions fail on the locked contract and retry, exactly as
// users of a real deployment would.
func (e *Engine) Location(contract hashing.Address) hashing.ChainID { return e.loc[contract] }

// Moving reports how many migrations are in flight.
func (e *Engine) Moving() int { return len(e.moving) }

// IsMoving reports whether a contract is mid-migration. Workload drivers
// use it to pause a contract's traffic instead of burning block space on
// calls that the locked contract will reject.
func (e *Engine) IsMoving(contract hashing.Address) bool { return e.moving[contract] }

// Stats returns the engine's activity counts.
func (e *Engine) Stats() Stats { return e.stats }

// Start schedules the recurring policy tick.
func (e *Engine) Start() {
	e.cfg.Clock.After(interval, e.tick)
}

// tick issues every migration the policy plans. A planned move always
// starts at the contract's current home and goes elsewhere: the snapshot
// leaves out moving contracts, and the policy proposes from home.
func (e *Engine) tick() {
	e.stats.Ticks++
	e.count("shard.ticks")
	for _, m := range e.pol.plan(e.snapshot()) {
		e.issue(m)
	}
	e.reset()
	e.cfg.Clock.After(interval, e.tick)
}

// snapshot assembles the policy's view: chains in configuration order,
// contracts in registration order, mid-move contracts excluded.
func (e *Engine) snapshot() *snapshot {
	s := &snapshot{chains: slices.Clone(e.shards)}
	for i, c := range e.cfg.Chains {
		s.chains[i].pending = c.PendingTxs()
	}
	for _, addr := range e.tracked {
		if e.moving[addr] {
			continue
		}
		w := e.window[addr]
		w.home = e.loc[addr]
		s.contracts = append(s.contracts, w)
	}
	return s
}

// reset ages the contracts' traffic windows for the next interval. They
// are leaky buckets — each tick keeps 3/4 of the count — so a contract
// whose community traffic is thin but persistent (the norm at 64 chains,
// where a congested hot shard spreads a few hundred calls per window over
// a hundred contracts) still accumulates a stable affinity signal instead
// of flickering around the minTxs floor and never sustaining through
// damping.
func (e *Engine) reset() {
	for _, w := range e.window {
		w.total = w.total * 3 / 4
		for k, n := range w.byHome {
			if n = n * 3 / 4; n == 0 {
				delete(w.byHome, k)
			} else {
				w.byHome[k] = n
			}
		}
	}
}

// issue launches one migration through the relay.
func (e *Engine) issue(m migration) {
	e.moving[m.contract] = true
	e.stats.Issued++
	e.count("shard.moves_issued")
	e.count("shard.moves_" + m.reason)
	e.gauge()
	mover := e.cfg.Mover(m.from, m.to)
	mover.Move(e.owner[m.contract], m.contract, core.MoveToInput(m.to), func(r *relay.MoveResult) {
		delete(e.moving, m.contract)
		e.gauge()
		if r.Err != nil {
			e.stats.Failed++
			e.count("shard.moves_failed")
			return
		}
		e.loc[m.contract] = m.to
		e.stats.Completed++
		e.count("shard.moves_completed")
	})
}

func (e *Engine) count(name string) {
	if e.cfg.Counters != nil {
		e.cfg.Counters.Inc(name)
	}
}

func (e *Engine) gauge() {
	if e.cfg.Registry.Enabled() {
		e.cfg.Registry.SetGauge("shard.moving", float64(len(e.moving)))
	}
}
