// Package shard implements automatic contract migration across the shards
// of a universe: an engine that watches per-contract cross-chain traffic
// and per-shard congestion over decayed windows, and pluggable policies
// that turn those observations into Move1/Move2 migrations through the
// relay. The paper's conclusion names "decentralized load balancing smart
// contracts for sharded blockchains" as the natural application of the
// Move primitive (§X); this package is the centralized version of that
// controller, driven by the sharded scaling workload.
package shard

import (
	"time"

	"scmove/internal/hashing"
)

// Migration is one policy decision: move a contract between shards.
type Migration struct {
	Contract hashing.Address
	From, To hashing.ChainID
	// Reason tags the signal that triggered the move ("affinity" or
	// "load"), for counters and traces.
	Reason string
}

// ContractLoad is one tracked contract's recent traffic: a leaky-bucket
// count that keeps 3/4 of its value across each policy tick, so the
// effective window is about four intervals.
type ContractLoad struct {
	Contract hashing.Address
	// Home is where the contract currently lives.
	Home hashing.ChainID
	// Total is the window's call count.
	Total uint64
	// ByHome buckets the window's calls by the *caller's* home chain: a
	// contract whose callers mostly live elsewhere is cross-chain pressure
	// the affinity policy can relieve.
	ByHome map[hashing.ChainID]uint64
}

// ChainLoad is one shard's congestion signals over the last window.
type ChainLoad struct {
	ID hashing.ChainID
	// Pending is the current transaction-pool depth.
	Pending int
	// Blocks and Txs count the window's committed blocks and transactions.
	Blocks, Txs uint64
	// MaxTxs is the chain's per-block transaction cap.
	MaxTxs int
}

// Snapshot is what a policy sees at each tick. All slices are in
// deterministic order (chains in configuration order, contracts in
// registration order), and policies must not iterate Go maps directly —
// walk Order instead — so plans are reproducible.
type Snapshot struct {
	Now time.Duration
	// Order lists the chain ids in configuration order.
	Order []hashing.ChainID
	// Chains is indexed like Order.
	Chains []ChainLoad
	// Contracts holds every tracked contract not currently mid-move.
	Contracts []*ContractLoad
}

// Policy turns a load snapshot into migrations. Implementations may keep
// state between ticks (sustain windows, cooldowns); they are called from
// one goroutine only.
type Policy interface {
	Plan(s *Snapshot) []Migration
}

// Greedy migrates eagerly on the current window alone, on two independent
// signals:
//
//   - Affinity: a contract whose window traffic is dominated by callers
//     homed on another chain moves to that chain.
//   - Load (Capacity > 0): the shard with the deepest transaction pool,
//     once past Capacity, sheds contracts to the shallowest shard until
//     the contract-count imbalance would halve.
type Greedy struct {
	// Dominance is the traffic share the winning chain must hold
	// (default 0.5).
	Dominance float64
	// MinTxs ignores contracts with fewer window calls (default 8).
	MinTxs uint64
	// Capacity is the pool depth past which a shard counts as congested;
	// 0 disables load shedding.
	Capacity int
	// MaxMoves caps migrations per tick *per signal* (default 8). The
	// budgets are independent: at scale the affinity set is noisy (thin
	// per-contract windows churn which contracts qualify each tick) and
	// under a shared budget it starves the load signal, whose stable
	// proposals are the ones that survive hysteresis and actually unstick
	// a congested shard.
	MaxMoves int
}

// Plan implements Policy.
func (g *Greedy) Plan(s *Snapshot) []Migration {
	budget := g.MaxMoves
	if budget <= 0 {
		budget = 8
	}
	dom := g.Dominance
	if dom <= 0 {
		dom = 0.5
	}
	minTxs := g.MinTxs
	if minTxs == 0 {
		minTxs = 8
	}
	var out []Migration
	planned := make(map[hashing.Address]bool)

	remaining := budget
	for _, c := range s.Contracts {
		if remaining == 0 {
			break
		}
		if c.Total < minTxs {
			continue
		}
		best, bestN := c.Home, c.ByHome[c.Home]
		for _, id := range s.Order {
			if n := c.ByHome[id]; n > bestN {
				best, bestN = id, n
			}
		}
		if best != c.Home && float64(bestN) >= dom*float64(c.Total) {
			out = append(out, Migration{Contract: c.Contract, From: c.Home, To: best, Reason: "affinity"})
			planned[c.Contract] = true
			remaining--
		}
	}

	if g.Capacity > 0 && len(s.Chains) > 1 {
		hot, cold := s.Chains[0], s.Chains[0]
		for _, cl := range s.Chains[1:] {
			if cl.Pending > hot.Pending {
				hot = cl
			}
			if cl.Pending < cold.Pending {
				cold = cl
			}
		}
		if hot.ID != cold.ID && hot.Pending > g.Capacity {
			counts := make(map[hashing.ChainID]int)
			for _, c := range s.Contracts {
				counts[c.Home]++
			}
			// Halve the contract-count imbalance, a few at a time.
			quota := (counts[hot.ID] - counts[cold.ID]) / 2
			if quota > budget {
				quota = budget
			}
			for _, c := range s.Contracts {
				if quota <= 0 {
					break
				}
				if c.Home != hot.ID || planned[c.Contract] {
					continue
				}
				out = append(out, Migration{Contract: c.Contract, From: hot.ID, To: cold.ID, Reason: "load"})
				planned[c.Contract] = true
				quota--
			}
		}
	}
	return out
}

// Hysteresis wraps an inner policy with sustain and cooldown windows: a
// migration must be re-proposed for Sustain consecutive ticks before it is
// issued, and a contract that just moved is immovable for Cooldown ticks.
// It trades reaction time for stability — a contract bouncing between two
// shards on alternating windows costs two moves per oscillation and helps
// nobody.
type Hysteresis struct {
	Inner Policy
	// Sustain is how many consecutive ticks the same (contract, target)
	// proposal must recur before it fires.
	Sustain int
	// Cooldown is how many ticks a contract rests after a move.
	Cooldown int

	streak map[hashing.Address]sustained
	cool   map[hashing.Address]int
}

type sustained struct {
	to    hashing.ChainID
	count int
}

// Plan implements Policy.
func (h *Hysteresis) Plan(s *Snapshot) []Migration {
	if h.streak == nil {
		h.streak = make(map[hashing.Address]sustained)
		h.cool = make(map[hashing.Address]int)
	}
	for c, left := range h.cool {
		if left <= 0 {
			delete(h.cool, c)
		} else {
			h.cool[c] = left - 1
		}
	}
	proposed := h.Inner.Plan(s)
	seen := make(map[hashing.Address]bool, len(proposed))
	var out []Migration
	for _, m := range proposed {
		seen[m.Contract] = true
		if _, resting := h.cool[m.Contract]; resting {
			continue
		}
		st := h.streak[m.Contract]
		if st.to == m.To {
			st.count++
		} else {
			st = sustained{to: m.To, count: 1}
		}
		if st.count >= h.Sustain {
			out = append(out, m)
			delete(h.streak, m.Contract)
			h.cool[m.Contract] = h.Cooldown
			continue
		}
		h.streak[m.Contract] = st
	}
	// A proposal that lapsed for a tick starts over.
	for c := range h.streak {
		if !seen[c] {
			delete(h.streak, c)
		}
	}
	return out
}
