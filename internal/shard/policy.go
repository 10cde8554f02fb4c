// Package shard implements automatic contract migration across the shards
// of a universe: an engine that watches per-contract cross-chain traffic
// and per-shard congestion over decayed windows, and one policy that turns
// those observations into Move1/Move2 migrations through the relay. The
// paper's conclusion names "decentralized load balancing smart contracts
// for sharded blockchains" as the natural application of the Move
// primitive (§X); this package is the centralized version of that
// controller, driven by the sharded scaling workload.
package shard

import (
	"time"

	"scmove/internal/hashing"
)

// The policy's settings. Every tick it proposes moves on two signals and
// damps them:
//
//   - Affinity: a contract with at least minTxs window calls, of which the
//     callers homed on one other chain hold at least the dominance share,
//     moves to that chain.
//   - Load: the shard with the deepest transaction pool, once it holds more
//     than loadBlocks blocks' worth of its own MaxBlockTxs, sheds contracts
//     to the shallowest shard until the contract-count imbalance would
//     halve.
//
// Each signal proposes at most maxMoves a tick. The budgets are
// independent: at scale the affinity set is noisy (thin per-contract
// windows churn which contracts qualify each tick) and under a shared
// budget it starves the load signal, whose stable proposals are the ones
// that survive damping and actually unstick a congested shard. Damping
// issues a move only once the same (contract, target) proposal recurred on
// sustain consecutive ticks, and rests a moved contract for cooldown ticks.
const (
	interval   = 20 * time.Second
	dominance  = 0.5
	minTxs     = 2
	loadBlocks = 2
	maxMoves   = 16
	sustain    = 2
	cooldown   = 3
)

// migration is one policy decision: move a contract between shards.
type migration struct {
	contract hashing.Address
	from, to hashing.ChainID
	// reason tags the signal that proposed the move ("affinity" or
	// "load"), for counters.
	reason string
}

// contractLoad is one tracked contract's recent traffic: a leaky-bucket
// count that keeps 3/4 of its value across each policy tick, so the
// effective window is about four intervals.
type contractLoad struct {
	contract hashing.Address
	// home is where the contract currently lives.
	home hashing.ChainID
	// total is the window's call count.
	total uint64
	// byHome buckets the window's calls by the *caller's* home chain: a
	// contract whose callers mostly live elsewhere is cross-chain pressure
	// the affinity signal can relieve.
	byHome map[hashing.ChainID]uint64
}

// chainLoad is one shard's congestion at a tick.
type chainLoad struct {
	id hashing.ChainID
	// pending is the current transaction-pool depth.
	pending int
	// maxTxs is the chain's per-block transaction cap.
	maxTxs int
}

// snapshot is what the policy sees at each tick: chains in configuration
// order, contracts in registration order, mid-move contracts left out. The
// policy walks these slices, never a Go map, so plans are reproducible.
type snapshot struct {
	chains    []chainLoad
	contracts []*contractLoad
}

// policy keeps the damping state between ticks; it is called from one
// goroutine only.
type policy struct {
	// streak counts the consecutive ticks a contract's current target has
	// been proposed.
	streak map[hashing.Address]sustained
	// cool holds the ticks a moved contract still rests.
	cool map[hashing.Address]int
}

type sustained struct {
	to    hashing.ChainID
	count int
}

func newPolicy() *policy {
	return &policy{
		streak: make(map[hashing.Address]sustained),
		cool:   make(map[hashing.Address]int),
	}
}

// plan turns one snapshot into the migrations to issue now.
func (p *policy) plan(s *snapshot) []migration { return p.damp(propose(s)) }

// propose reads the current window alone: affinity moves first, then load
// moves, no contract twice.
func propose(s *snapshot) []migration {
	var out []migration
	planned := make(map[hashing.Address]bool)

	remaining := maxMoves
	for _, c := range s.contracts {
		if remaining == 0 {
			break
		}
		if c.total < minTxs {
			continue
		}
		best, bestN := c.home, c.byHome[c.home]
		for _, cl := range s.chains {
			if n := c.byHome[cl.id]; n > bestN {
				best, bestN = cl.id, n
			}
		}
		if best != c.home && float64(bestN) >= dominance*float64(c.total) {
			out = append(out, migration{contract: c.contract, from: c.home, to: best, reason: "affinity"})
			planned[c.contract] = true
			remaining--
		}
	}

	if len(s.chains) < 2 {
		return out
	}
	hot, cold := s.chains[0], s.chains[0]
	for _, cl := range s.chains[1:] {
		if cl.pending > hot.pending {
			hot = cl
		}
		if cl.pending < cold.pending {
			cold = cl
		}
	}
	if hot.id == cold.id || hot.pending <= loadBlocks*hot.maxTxs {
		return out
	}
	counts := make(map[hashing.ChainID]int)
	for _, c := range s.contracts {
		counts[c.home]++
	}
	// Halve the contract-count imbalance, a few at a time.
	quota := min((counts[hot.id]-counts[cold.id])/2, maxMoves)
	for _, c := range s.contracts {
		if quota <= 0 {
			break
		}
		if c.home != hot.id || planned[c.contract] {
			continue
		}
		out = append(out, migration{contract: c.contract, from: hot.id, to: cold.id, reason: "load"})
		planned[c.contract] = true
		quota--
	}
	return out
}

// damp passes on the proposals that recurred for sustain consecutive ticks
// toward the same target and whose contract is not resting. It trades
// reaction time for stability: a contract bouncing between two shards on
// alternating windows costs two moves per oscillation and helps nobody.
func (p *policy) damp(proposed []migration) []migration {
	for c, left := range p.cool {
		if left <= 0 {
			delete(p.cool, c)
		} else {
			p.cool[c] = left - 1
		}
	}
	seen := make(map[hashing.Address]bool, len(proposed))
	var out []migration
	for _, m := range proposed {
		seen[m.contract] = true
		if _, resting := p.cool[m.contract]; resting {
			continue
		}
		st := p.streak[m.contract]
		if st.to == m.to {
			st.count++
		} else {
			st = sustained{to: m.to, count: 1}
		}
		if st.count >= sustain {
			out = append(out, m)
			delete(p.streak, m.contract)
			p.cool[m.contract] = cooldown
			continue
		}
		p.streak[m.contract] = st
	}
	// A proposal that lapsed for a tick starts over.
	for c := range p.streak {
		if !seen[c] {
			delete(p.streak, c)
		}
	}
	return out
}
