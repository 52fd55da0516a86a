package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// benchmarkFile is BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// Every metric the benchmark can print is declared in BENCHMARK.json
// with the unit it is printed with, and nothing else is.
func TestUnitsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside this directory:", err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(list string, n, u, better string, printed map[string]string, declared map[string]string) {
		if !name.MatchString(n) || !unit.MatchString(u) {
			t.Errorf("metric %q unit %q breaks the naming rules", n, u)
		}
		if better != "lower" && better != "higher" {
			t.Errorf("metric %q: better %q", n, better)
		}
		if seen[n] {
			t.Errorf("metric %q declared twice", n)
		}
		seen[n] = true
		declared[n] = u
		if printed[n] != u {
			t.Errorf("%s metric %q is declared in %q but printed in %q", list, n, u, printed[n])
		}
	}
	e2e, layers := map[string]string{}, map[string]string{}
	for _, m := range f.EndToEnd {
		check("end-to-end", m.Name, m.Unit, m.Better, endToEnd, e2e)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %q: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range f.PerLayer {
		check("per-layer", m.Name, m.Unit, m.Better, perLayer, layers)
	}
	for _, l := range []struct {
		printed, declared map[string]string
	}{{endToEnd, e2e}, {perLayer, layers}} {
		for n := range l.printed {
			if _, ok := l.declared[n]; !ok {
				t.Errorf("the benchmark prints %q, which BENCHMARK.json does not declare in that list", n)
			}
		}
	}
	if _, ok := e2e["setup_s"]; !ok {
		t.Error("setup_s is not an end-to-end metric")
	}
	workloads := map[string]bool{}
	for _, w := range f.Workloads {
		workloads[w.Name] = true
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %q: why has %d characters", w.Name, len(w.Why))
		}
	}
	for _, w := range []string{"artifacts", "sampled", "serve"} {
		if !workloads[w] {
			t.Errorf("workload %q missing", w)
		}
	}
	if len(f.Workloads) != 3 {
		t.Errorf("%d workloads, want exactly artifacts, sampled and serve", len(f.Workloads))
	}
}

// A result passes checkMetricSet only with exactly its list's metrics.
func TestCheckMetricSet(t *testing.T) {
	var r result
	for n := range endToEnd {
		r.set(n, 1)
	}
	if err := checkMetricSet(r, false); err != nil {
		t.Errorf("full end-to-end set: %v", err)
	}
	if err := checkMetricSet(r, true); err == nil {
		t.Error("end-to-end metrics passed as a per-layer set")
	}
	delete(r.Metrics, "setup_s")
	if err := checkMetricSet(r, false); err == nil {
		t.Error("a set without setup_s passed")
	}
	r.set("setup_s", 1)
	r.set("cpu.jumps", 1)
	if err := checkMetricSet(r, false); err == nil {
		t.Error("a set with a per-layer metric passed as end-to-end")
	}
}
