package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json that -compare needs.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// exactMetrics must repeat to the last digit between two runs of one commit
// and seed: they are simulated quantities. failed_frac is exact only where
// the whole run is discrete-event.
var exactMetrics = map[string][]string{
	"kitties_replay": {"e2e.sim_tx_s", "e2e.failed_frac"},
	"move_store":     {"e2e.sim_move_s_p50", "e2e.failed_frac"},
	"shard_migrate":  {"e2e.sim_tx_s", "e2e.failed_frac"},
}

func readResults(path string) (*resultsFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// compareFiles prints, per (workload, end-to-end metric), both values, how
// much worse B is than A as a share of A, and the bound from BENCHMARK.json;
// it reports false when any bound is breached or an exact metric differs.
func compareFiles(w io.Writer, pathA, pathB, benchPath string) (bool, error) {
	a, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	raw, err := os.ReadFile(benchPath)
	if err != nil {
		return false, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return false, fmt.Errorf("%s: %w", benchPath, err)
	}
	return compareResults(w, a, b, bf), nil
}

func compareResults(w io.Writer, a, b *resultsFile, bf benchmarkFile) bool {
	names := make([]string, 0, len(a.Workloads))
	for name := range a.Workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	ok := true
	fmt.Fprintf(w, "%-16s %-22s %14s %14s %9s %7s\n", "workload", "metric", "A", "B", "worse by", "bound")
	for _, wl := range names {
		ma, mb := a.Workloads[wl], b.Workloads[wl]
		for _, d := range bf.EndToEnd {
			va, inA := ma[d.Name]
			vb, inB := mb[d.Name]
			if !inA || !inB || va.Value == 0 {
				fmt.Fprintf(w, "%-16s %-22s missing or zero\n", wl, d.Name)
				ok = false
				continue
			}
			worse := (vb.Value - va.Value) / va.Value
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := ""
			if worse > d.Bound {
				verdict = "  BREACH"
				ok = false
			}
			fmt.Fprintf(w, "%-16s %-22s %14.4f %14.4f %+8.2f%% %6.0f%%%s\n",
				wl, d.Name, va.Value, vb.Value, 100*worse, 100*d.Bound, verdict)
		}
		for _, name := range exactMetrics[wl] {
			va, vb := ma[name], mb[name]
			verdict := "identical"
			if va.Value != vb.Value {
				verdict = "DIFFERS"
				ok = false
			}
			fmt.Fprintf(w, "%-16s %-22s %14v %14v %9s %7s\n", wl, name, va.Value, vb.Value, verdict, "exact")
		}
	}
	return ok
}
