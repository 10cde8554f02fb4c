package shard

import (
	"time"

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
	// Mover returns a relayer between two shards (universe.Mover, with
	// lazy relay-link creation riding along for free).
	Mover func(src, dst hashing.ChainID) *relay.Mover
	// Home resolves a transaction sender to its home chain, feeding the
	// affinity signal.
	Home func(addr hashing.Address) (hashing.ChainID, bool)
	// Interval is the policy tick spacing; it must be positive.
	Interval time.Duration
	// Policy decides the migrations.
	Policy Policy
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
	cfg    Config
	chains map[hashing.ChainID]*chain.Chain
	order  []hashing.ChainID

	loc     map[hashing.Address]hashing.ChainID
	owner   map[hashing.Address]*relay.Client
	tracked []hashing.Address // registration order — the policy's iteration order
	window  map[hashing.Address]*ContractLoad
	chWin   map[hashing.ChainID]*ChainLoad
	moving  map[hashing.Address]bool

	stats   Stats
	stopped bool
}

// New builds an engine and registers its block listeners; call Track for
// each managed contract, then Start.
func New(cfg Config) *Engine {
	e := &Engine{
		cfg:    cfg,
		chains: make(map[hashing.ChainID]*chain.Chain, len(cfg.Chains)),
		loc:    make(map[hashing.Address]hashing.ChainID),
		owner:  make(map[hashing.Address]*relay.Client),
		window: make(map[hashing.Address]*ContractLoad),
		chWin:  make(map[hashing.ChainID]*ChainLoad),
		moving: make(map[hashing.Address]bool),
	}
	for _, c := range cfg.Chains {
		c := c
		id := c.ChainID()
		e.chains[id] = c
		e.order = append(e.order, id)
		e.chWin[id] = &ChainLoad{ID: id, MaxTxs: c.Config().MaxBlockTxs}
		c.OnBlock(func(b *types.Block, _ []*types.Receipt) { e.observe(id, b) })
	}
	return e
}

// observe folds one committed block into the traffic windows.
func (e *Engine) observe(id hashing.ChainID, b *types.Block) {
	if e.stopped {
		return
	}
	w := e.chWin[id]
	w.Blocks++
	w.Txs += uint64(len(b.Txs))
	for _, tx := range b.Txs {
		if tx.Kind != types.TxCall {
			continue
		}
		cw, ok := e.window[tx.To]
		if !ok {
			continue
		}
		cw.Total++
		if sender, err := tx.Sender(); err == nil {
			if home, ok := e.cfg.Home(sender); ok {
				cw.ByHome[home]++
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
	e.window[contract] = &ContractLoad{
		Contract: contract,
		ByHome:   make(map[hashing.ChainID]uint64, len(e.order)),
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
	e.cfg.Clock.After(e.cfg.Interval, e.tick)
}

// Stop halts ticking and observation; in-flight moves still run to
// completion (the relayer owns them).
func (e *Engine) Stop() { e.stopped = true }

func (e *Engine) tick() {
	if e.stopped {
		return
	}
	e.stats.Ticks++
	e.count("shard.ticks")
	snap := e.snapshot()
	for _, m := range e.cfg.Policy.Plan(snap) {
		if e.moving[m.Contract] || e.loc[m.Contract] != m.From || m.From == m.To {
			continue
		}
		e.issue(m)
	}
	e.reset()
	e.cfg.Clock.After(e.cfg.Interval, e.tick)
}

// snapshot assembles the policy's view: chains in configuration order,
// contracts in registration order, mid-move contracts excluded.
func (e *Engine) snapshot() *Snapshot {
	s := &Snapshot{
		Now:   e.cfg.Clock.Now(),
		Order: e.order,
	}
	for _, id := range e.order {
		w := *e.chWin[id]
		w.Pending = e.chains[id].PendingTxs()
		s.Chains = append(s.Chains, w)
	}
	for _, addr := range e.tracked {
		if e.moving[addr] {
			continue
		}
		w := e.window[addr]
		w.Home = e.loc[addr]
		s.Contracts = append(s.Contracts, w)
	}
	return s
}

// reset ages the traffic windows for the next interval. Contract windows
// are leaky buckets — each tick keeps 3/4 of the count — so a contract
// whose community traffic is thin but persistent (the norm at 64 chains,
// where a congested hot shard spreads a few hundred calls per window over
// a hundred contracts) still accumulates a stable affinity signal instead
// of flickering around the MinTxs floor and never sustaining through
// hysteresis. Chain windows are true per-interval windows and reset hard.
func (e *Engine) reset() {
	for _, w := range e.window {
		w.Total = w.Total * 3 / 4
		for k, n := range w.ByHome {
			if n = n * 3 / 4; n == 0 {
				delete(w.ByHome, k)
			} else {
				w.ByHome[k] = n
			}
		}
	}
	for _, w := range e.chWin {
		w.Blocks, w.Txs = 0, 0
	}
}

// issue launches one migration through the relay.
func (e *Engine) issue(m Migration) {
	e.moving[m.Contract] = true
	e.stats.Issued++
	e.count("shard.moves_issued")
	if m.Reason != "" {
		e.count("shard.moves_" + m.Reason)
	}
	e.gauge()
	mover := e.cfg.Mover(m.From, m.To)
	mover.Move(e.owner[m.Contract], m.Contract, core.MoveToInput(m.To), func(r *relay.MoveResult) {
		delete(e.moving, m.Contract)
		e.gauge()
		if r.Err != nil {
			e.stats.Failed++
			e.count("shard.moves_failed")
			return
		}
		e.loc[m.Contract] = m.To
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
