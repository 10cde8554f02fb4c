package shard

import (
	"fmt"
	"strings"
	"testing"

	"scmove/internal/hashing"
)

func addr(b byte) hashing.Address {
	var a hashing.Address
	a[0] = b
	return a
}

// chains builds one chainLoad per pool depth, ids 1, 2, …, each capped at
// the sharded workload's 60 transactions a block: the load threshold is
// then 120.
func chains(pending ...int) []chainLoad {
	out := make([]chainLoad, len(pending))
	for i, p := range pending {
		out[i] = chainLoad{id: hashing.ChainID(i + 1), pending: p, maxTxs: 60}
	}
	return out
}

// load is contract b homed on home with the given window traffic by
// caller home.
func load(b byte, home hashing.ChainID, byHome map[hashing.ChainID]uint64) *contractLoad {
	c := &contractLoad{contract: addr(b), home: home, byHome: byHome}
	for _, n := range byHome {
		c.total += n
	}
	return c
}

func format(plan []migration) string {
	var parts []string
	for _, m := range plan {
		parts = append(parts, fmt.Sprintf("%d:%d>%d:%s", m.contract[0], m.from, m.to, m.reason))
	}
	return strings.Join(parts, " ")
}

// TestPropose runs the proposal step at the production constants
// (dominance 0.5, minTxs 2, maxMoves 16, threshold two blocks of 60).
func TestPropose(t *testing.T) {
	// Forty contracts on chain 1, every one called only from chain 2: the
	// affinity signal fills its budget of 16 and the load signal, with its
	// own budget, sheds the next 16 to the shallowest pool (chain 2).
	var dominated []*contractLoad
	var budgets []string
	for i := 1; i <= 40; i++ {
		dominated = append(dominated, load(byte(i), 1, map[hashing.ChainID]uint64{2: 10}))
		switch {
		case i <= maxMoves:
			budgets = append(budgets, fmt.Sprintf("%d:1>2:affinity", i))
		case i <= 2*maxMoves:
			budgets = append(budgets, fmt.Sprintf("%d:1>2:load", i))
		}
	}
	onHot := func(n int) []*contractLoad {
		var cs []*contractLoad
		for i := 1; i <= n; i++ {
			cs = append(cs, load(byte(i), 1, nil))
		}
		return cs
	}
	for _, tc := range []struct {
		name      string
		chains    []chainLoad
		contracts []*contractLoad
		want      string
	}{
		{"affinity", chains(0, 0, 0), []*contractLoad{
			load(1, 1, map[hashing.ChainID]uint64{1: 2, 2: 8}),
			// Majority local: stays.
			load(2, 1, map[hashing.ChainID]uint64{1: 7, 2: 3}),
			// Remote but under the minTxs floor: stays.
			load(3, 1, map[hashing.ChainID]uint64{3: 1}),
			// Exactly half is dominant.
			load(4, 1, map[hashing.ChainID]uint64{1: 4, 3: 5, 2: 1}),
		}, "1:1>2:affinity 4:1>3:affinity"},
		{"tie-stays-home", chains(0, 0), []*contractLoad{
			load(1, 1, map[hashing.ChainID]uint64{1: 5, 2: 5}),
		}, ""},
		{"load-halves-imbalance", chains(500, 50, 10),
			append([]*contractLoad{load(7, 2, nil)}, onHot(6)...),
			"1:1>3:load 2:1>3:load 3:1>3:load"},
		// Two blocks' worth is not congested; one more is.
		{"load-at-threshold", chains(120, 50, 10), onHot(6), ""},
		{"load-past-threshold", chains(121, 50, 10), onHot(2), "1:1>3:load"},
		{"load-below-threshold", chains(90, 50, 10), onHot(6), ""},
		{"load-hot-not-first", chains(10, 500),
			[]*contractLoad{load(1, 2, nil), load(2, 2, nil)}, "1:2>1:load"},
		{"load-cold-holds-more", chains(500, 0),
			[]*contractLoad{load(1, 1, nil), load(2, 2, nil), load(3, 2, nil)}, ""},
		{"per-signal-budgets", chains(500, 0, 0), dominated, strings.Join(budgets, " ")},
		{"single-chain", chains(500), []*contractLoad{
			load(1, 1, map[hashing.ChainID]uint64{2: 10}),
		}, ""},
		{"equal-pools", chains(500, 500, 500), onHot(6), ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := format(propose(&snapshot{chains: tc.chains, contracts: tc.contracts})); got != tc.want {
				t.Errorf("\n got %q\nwant %q", got, tc.want)
			}
		})
	}
}

// TestDamp feeds damp one contract's proposal tick by tick, at the
// production sustain 2 and cooldown 3.
func TestDamp(t *testing.T) {
	for _, tc := range []struct {
		name string
		// to is the proposed target on each tick; 0 proposes nothing.
		to []hashing.ChainID
		// fire has one byte per tick: '+' when damp issues the move.
		fire string
	}{
		// Fires on the second tick, rests three ticks, then must sustain
		// afresh.
		{"sustain-and-cooldown", []hashing.ChainID{2, 2, 2, 2, 2, 2, 2}, ".+....+"},
		{"lapsed-streak", []hashing.ChainID{2, 0, 2, 2}, "...+"},
		{"target-change", []hashing.ChainID{2, 3, 3}, "..+"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := newPolicy()
			var fired strings.Builder
			for _, to := range tc.to {
				var proposed []migration
				if to != 0 {
					proposed = []migration{{contract: addr(1), from: 1, to: to, reason: "affinity"}}
				}
				switch out := p.damp(proposed); {
				case len(out) == 0:
					fired.WriteByte('.')
				case len(out) == 1 && out[0] == proposed[0]:
					fired.WriteByte('+')
				default:
					t.Fatalf("damp returned %+v for %+v", out, proposed)
				}
			}
			if fired.String() != tc.fire {
				t.Errorf("fired %q, want %q", fired.String(), tc.fire)
			}
		})
	}
}
