package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"scmove/internal/hashing"
)

func smokeOptions(t *testing.T, name string) options {
	t.Helper()
	return options{workload: name, seed: 7, seconds: 0.4, smoke: true,
		workDir: t.TempDir(), traceOut: filepath.Join(t.TempDir(), "trace.jsonl")}
}

// Every workload runs end to end at smoke scale as the driver runs it —
// untraced for the end-to-end metrics, traced for the per-layer ones — with
// its output check passing, the untraced and traced passes of the seed
// agreeing exactly, and the spans written as JSONL.
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads() {
		t.Run(w.name, func(t *testing.T) {
			o := smokeOptions(t, w.name)
			res, err := runOne(w, o)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("untraced run: correct %v, attempted %d, failed %d", res.Correct, res.Attempted, res.Failed)
			}
			for _, d := range endToEndDefs {
				if v := res.Metrics[d.name].Value; !(v > 0) || math.IsInf(v, 0) {
					t.Errorf("end-to-end metric %s = %v, want a positive number", d.name, v)
				}
			}

			o.trace = true
			res, err = runOne(w, o)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Errorf("traced run: correct %v, failed %d", res.Correct, res.Failed)
			}
			for _, d := range perLayerDefs {
				if _, ok := res.Metrics[d.name]; !ok {
					t.Errorf("per-layer metric %s missing", d.name)
				}
			}
			for _, name := range []string{"mpt.get_ns", "keys.sign_us", "core.verify_move2_us_per_kslot",
				"chain.apply_transfer_us_per_tx", "state.commit_file_us_per_dirty", "types.recover_cold_us"} {
				if !(res.Metrics[name].Value > 0) {
					t.Errorf("%s = %v, want > 0", name, res.Metrics[name].Value)
				}
			}
			f, err := os.Open(o.traceOut)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			lines := 0
			for sc := bufio.NewScanner(f); sc.Scan(); lines++ {
				var s span
				if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
					t.Fatalf("trace line %d: %v", lines, err)
				}
				if s.Name == "" || s.End < s.Start {
					t.Fatalf("trace line %d: bad span %+v", lines, s)
				}
			}
			if lines == 0 {
				t.Error("empty trace file")
			}
		})
	}
}

// The tail rule: the highest percentile, not above the one asked for, with
// at least ten samples beyond it.
func TestSupportedTail(t *testing.T) {
	for _, c := range []struct {
		n          int
		want, used float64
	}{
		{1000, 0.99, 0.99},
		{999, 0.99, 0.95},
		{200, 0.95, 0.95},
		{199, 0.95, 0.90},
		{100, 0.99, 0.90},
		{40, 0.99, 0.75},
		{39, 0.99, 0.50},
		{3, 0.95, 0.50},
		{1_000_000, 0.95, 0.95},
	} {
		if got := supportedTail(c.n, c.want); got != c.used {
			t.Errorf("supportedTail(%d, %v) = %v, want %v", c.n, c.want, got, c.used)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, used := tail(xs, 0.99); used != 0.90 || math.Abs(v-90.1) > 1e-9 {
		t.Errorf("tail of 1..100 at p99 = %v (p%v), want 90.1 at p90", v, used*100)
	}
}

// Self time is a span minus the union of its direct children, clipped to
// the span: nested children are the children's business, overlapping
// children are not counted twice.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Seq: 1, Name: "root", Start: 0, End: 100},
		{Seq: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{Seq: 3, Parent: 1, Name: "b", Start: 30, End: 60},  // overlaps a by 10
		{Seq: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // sticks out by 20
		{Seq: 5, Parent: 2, Name: "a1", Start: 15, End: 25}, // nested in a
		{Seq: 6, Parent: 2, Name: "a2", Start: 20, End: 30}, // overlaps a1 by 5
		{Seq: 7, Parent: 0, Name: "lone", Start: 200, End: 230},
	}
	self := selfTimes(spans)
	for seq, want := range map[int]time.Duration{
		1: 100 - (50 + 10), // children cover [10,60) and [90,100)
		2: 30 - 15,         // a1 and a2 cover [15,30)
		3: 30, 4: 30, 5: 10, 6: 10, 7: 30,
	} {
		if self[seq] != want {
			t.Errorf("self time of span %d = %d, want %d", seq, self[seq], want)
		}
	}
}

// fingerprint hashes generated front-door inputs: assignment, transaction
// ids in nonce order, visiting order and schedule. Signatures are left out
// (transaction ids exclude them).
func (in *rpcInputs) fingerprint() hashing.Hash {
	h := hashing.NewHasher(1 << 12)
	var buf [8]byte
	put := func(v uint64) {
		binary.BigEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for u, c := range in.chainOf {
		put(uint64(c))
		for _, tx := range in.txs[u] {
			id := tx.ID()
			h.Write(id[:])
		}
	}
	for _, users := range in.order {
		put(uint64(len(users)))
		for _, u := range users {
			put(uint64(u))
		}
	}
	for _, ops := range in.ops {
		put(uint64(len(ops)))
		for _, op := range ops {
			put(uint64(op.due))
			put(uint64(op.kind))
			put(uint64(op.user))
			put(uint64(op.slot))
			put(op.back)
		}
	}
	return h.Sum()
}

// The same seed generates byte-identical inputs, another seed different ones.
func TestGeneratedInputsFollowTheSeed(t *testing.T) {
	chains := []hashing.ChainID{1, 2}
	open := func(seed int64) hashing.Hash {
		in, err := genOpenLoop(seed, 8, chains, 2, 400, 200, 200*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		return in.fingerprint()
	}
	closed := func(seed int64) hashing.Hash {
		in, err := genClosedLoop(seed, 8, chains, 2, 64)
		if err != nil {
			t.Fatal(err)
		}
		return in.fingerprint()
	}
	moves := func(seed int64) hashing.Hash {
		h := hashing.NewHasher(64)
		for _, k := range moveOrder(seed, 16, 64) {
			h.Uvarint(uint64(k))
		}
		return h.Sum()
	}
	for name, gen := range map[string]func(int64) hashing.Hash{"open loop": open, "closed loop": closed, "move order": moves} {
		if gen(3) != gen(3) {
			t.Errorf("%s: seed 3 generated different inputs twice", name)
		}
		if gen(3) == gen(4) {
			t.Errorf("%s: seeds 3 and 4 generated the same inputs", name)
		}
	}
	if kittiesConfig(options{}, 3).Seed == kittiesConfig(options{}, 4).Seed ||
		shardConfig(options{}, 64, 3).Seed == shardConfig(options{}, 64, 4).Seed ||
		subSeed(3, "kitties/0") == subSeed(4, "kitties/0") || subSeed(3, "kitties/0") == subSeed(3, "kitties/1") {
		t.Error("the replay seeds do not follow --seed and the round")
	}
}

func readBenchmarkJSON(t *testing.T) (benchmarkFile, map[string]any) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark directory: %v", err)
	}
	var bf benchmarkFile
	var all map[string]any
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &all); err != nil {
		t.Fatal(err)
	}
	return bf, all
}

// BENCHMARK.json and the program declare the same workloads and metrics.
func TestBenchmarkJSONMatches(t *testing.T) {
	bf, all := readBenchmarkJSON(t)
	if len(bf.EndToEnd) != len(endToEndDefs) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the program", len(bf.EndToEnd), len(endToEndDefs))
	}
	for i, d := range endToEndDefs {
		got := bf.EndToEnd[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better || got.Bound != d.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the program %+v", i, got, d)
		}
	}
	layers := all["per_layer"].([]any)
	if len(layers) != len(perLayerDefs) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program", len(layers), len(perLayerDefs))
	}
	for i, d := range perLayerDefs {
		got := layers[i].(map[string]any)
		if got["name"] != d.name || got["unit"] != d.unit || got["better"] != d.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %v, the program %+v", i, got, d)
		}
	}
	wls := all["workloads"].([]any)
	if len(wls) != len(workloads()) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(wls), len(workloads()))
	}
	for i, w := range workloads() {
		got := wls[i].(map[string]any)
		if got["name"] != w.name || got["why"] != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %v, the program %q", i, got, w.name)
		}
	}
}

// -compare flags a 12 % throughput drop under a 10 % bound, passes a 3 %
// one, reads the direction of a metric, and insists on exact simulated
// metrics.
func TestCompareBounds(t *testing.T) {
	var bf benchmarkFile
	if err := json.Unmarshal([]byte(`{"end_to_end": [
		{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
		{"name": "throughput_ops_s", "unit": "op/s", "better": "higher", "bound": 0.10}]}`), &bf); err != nil {
		t.Fatal(err)
	}
	base := func() *resultsFile {
		f := &resultsFile{Workloads: map[string]map[string]metric{}}
		for _, w := range workloads() {
			ms := map[string]metric{}
			for _, d := range endToEndDefs {
				ms[d.name] = metric{Value: 100, Unit: d.unit}
			}
			for _, name := range exactMetrics[w.name] {
				ms[name] = metric{Value: 58.75, Unit: "x"}
			}
			f.Workloads[w.name] = ms
		}
		return f
	}
	with := func(workload, name string, v float64) *resultsFile {
		f := base()
		m := f.Workloads[workload][name]
		m.Value = v
		f.Workloads[workload][name] = m
		return f
	}
	for _, c := range []struct {
		what string
		b    *resultsFile
		ok   bool
	}{
		{"identical results", base(), true},
		{"3% throughput drop", with("kitties_replay", "throughput_ops_s", 97), true},
		{"12% throughput drop", with("kitties_replay", "throughput_ops_s", 88), false},
		{"12% throughput gain", with("kitties_replay", "throughput_ops_s", 112), true},
		{"30% slower set-up", with("move_store", "setup_s", 130), false},
		{"simulated rate off by one digit", with("shard_migrate", "e2e.sim_tx_s", 58.7500001), false},
	} {
		var out bytes.Buffer
		if got := compareResults(&out, base(), c.b, bf); got != c.ok {
			t.Errorf("%s: compare passed = %v, want %v\n%s", c.what, got, c.ok, out.String())
		}
		if !c.ok && !strings.Contains(out.String(), "BREACH") && !strings.Contains(out.String(), "DIFFERS") {
			t.Errorf("%s: the breach is not named in the output:\n%s", c.what, out.String())
		}
	}
}
