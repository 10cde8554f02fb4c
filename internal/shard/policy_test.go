package shard

import (
	"testing"

	"scmove/internal/hashing"
)

func addr(b byte) hashing.Address {
	var a hashing.Address
	a[0] = b
	return a
}

func snap3() *Snapshot {
	return &Snapshot{
		Order: []hashing.ChainID{1, 2, 3},
		Chains: []ChainLoad{
			{ID: 1, MaxTxs: 60},
			{ID: 2, MaxTxs: 60},
			{ID: 3, MaxTxs: 60},
		},
	}
}

func TestGreedyAffinityDominance(t *testing.T) {
	g := &Greedy{Dominance: 0.5, MinTxs: 4}
	s := snap3()
	s.Contracts = []*ContractLoad{
		// Dominated by chain 2 callers: moves.
		{Contract: addr(1), Home: 1, Total: 10,
			ByHome: map[hashing.ChainID]uint64{1: 2, 2: 8}},
		// Majority local: stays.
		{Contract: addr(2), Home: 1, Total: 10,
			ByHome: map[hashing.ChainID]uint64{1: 7, 2: 3}},
		// Dominated remotely but under the MinTxs floor: stays.
		{Contract: addr(3), Home: 1, Total: 3,
			ByHome: map[hashing.ChainID]uint64{3: 3}},
	}
	out := g.Plan(s)
	if len(out) != 1 {
		t.Fatalf("planned %d moves, want 1: %+v", len(out), out)
	}
	if m := out[0]; m.Contract != addr(1) || m.From != 1 || m.To != 2 || m.Reason != "affinity" {
		t.Fatalf("wrong move: %+v", m)
	}
}

func TestGreedyLoadSheddingHalvesImbalance(t *testing.T) {
	g := &Greedy{Capacity: 100, MaxMoves: 8}
	s := snap3()
	s.Chains[0].Pending = 500 // hot
	s.Chains[1].Pending = 50
	s.Chains[2].Pending = 10 // cold
	for i := 0; i < 6; i++ {
		s.Contracts = append(s.Contracts, &ContractLoad{Contract: addr(byte(i + 1)), Home: 1})
	}
	out := g.Plan(s)
	// quota = (6 - 0) / 2 = 3, all hot -> cold.
	if len(out) != 3 {
		t.Fatalf("planned %d moves, want 3: %+v", len(out), out)
	}
	for _, m := range out {
		if m.From != 1 || m.To != 3 || m.Reason != "load" {
			t.Fatalf("wrong move: %+v", m)
		}
	}
	// Below the congestion threshold nothing sheds.
	s.Chains[0].Pending = 90
	if out := g.Plan(s); len(out) != 0 {
		t.Fatalf("uncongested shard shed %d contracts", len(out))
	}
}

// TestGreedyBudgetsArePerSignal pins the starvation fix: a full slate of
// affinity proposals must not consume the load signal's budget — at scale
// the affinity set churns tick to tick while the load set is the stable
// one that survives hysteresis.
func TestGreedyBudgetsArePerSignal(t *testing.T) {
	g := &Greedy{MinTxs: 1, Capacity: 100, MaxMoves: 2}
	s := snap3()
	s.Chains[0].Pending = 500
	s.Chains[2].Pending = 0
	for i := 0; i < 8; i++ {
		c := &ContractLoad{Contract: addr(byte(i + 1)), Home: 1, Total: 10,
			ByHome: map[hashing.ChainID]uint64{2: 10}}
		s.Contracts = append(s.Contracts, c)
	}
	out := g.Plan(s)
	byReason := map[string]int{}
	for _, m := range out {
		byReason[m.Reason]++
	}
	if byReason["affinity"] != 2 || byReason["load"] != 2 {
		t.Fatalf("per-signal budgets violated: %v (want 2 affinity + 2 load)", byReason)
	}
	// No contract is planned twice across the two signals.
	seen := map[hashing.Address]bool{}
	for _, m := range out {
		if seen[m.Contract] {
			t.Fatalf("contract %v planned twice", m.Contract)
		}
		seen[m.Contract] = true
	}
}

// fixedPolicy proposes a canned plan every tick.
type fixedPolicy struct{ plan []Migration }

func (f *fixedPolicy) Plan(*Snapshot) []Migration { return f.plan }

func TestHysteresisSustainAndCooldown(t *testing.T) {
	m := Migration{Contract: addr(1), From: 1, To: 2, Reason: "affinity"}
	inner := &fixedPolicy{plan: []Migration{m}}
	h := &Hysteresis{Inner: inner, Sustain: 2, Cooldown: 3}
	s := snap3()

	if out := h.Plan(s); len(out) != 0 {
		t.Fatalf("fired on first proposal: %+v", out)
	}
	if out := h.Plan(s); len(out) != 1 {
		t.Fatalf("did not fire after sustain: %+v", out)
	}
	// Cooldown: the same proposal is suppressed for the next 3 ticks even
	// though the inner policy keeps making it...
	for i := 0; i < 3; i++ {
		if out := h.Plan(s); len(out) != 0 {
			t.Fatalf("fired during cooldown tick %d: %+v", i, out)
		}
	}
	// ...after which the sustain count starts over.
	if out := h.Plan(s); len(out) != 0 {
		t.Fatal("fired without re-sustaining after cooldown")
	}
	if out := h.Plan(s); len(out) != 1 {
		t.Fatal("did not fire after re-sustaining")
	}
}

func TestHysteresisLapsedStreakResets(t *testing.T) {
	m := Migration{Contract: addr(1), From: 1, To: 2}
	inner := &fixedPolicy{plan: []Migration{m}}
	h := &Hysteresis{Inner: inner, Sustain: 2, Cooldown: 1}
	s := snap3()

	h.Plan(s) // streak 1
	inner.plan = nil
	h.Plan(s) // proposal lapses; streak must reset
	inner.plan = []Migration{m}
	if out := h.Plan(s); len(out) != 0 {
		t.Fatalf("lapsed streak carried over: %+v", out)
	}
	if out := h.Plan(s); len(out) != 1 {
		t.Fatal("did not fire after a fresh sustain")
	}
}

func TestHysteresisTargetChangeResets(t *testing.T) {
	inner := &fixedPolicy{plan: []Migration{{Contract: addr(1), From: 1, To: 2}}}
	h := &Hysteresis{Inner: inner, Sustain: 2, Cooldown: 1}
	s := snap3()
	h.Plan(s) // streak 1 toward chain 2
	inner.plan = []Migration{{Contract: addr(1), From: 1, To: 3}}
	if out := h.Plan(s); len(out) != 0 {
		t.Fatalf("fired on a changed target: %+v", out)
	}
	if out := h.Plan(s); len(out) != 1 {
		t.Fatal("did not fire after sustaining the new target")
	}
}
