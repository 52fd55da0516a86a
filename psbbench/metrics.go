package main

import (
	"fmt"
	"sort"
	"strings"
)

// endToEnd declares the metrics of an untraced run and perLayer those
// of a traced run, with their units. Every workload prints every metric
// of its list, so each is defined for all three workloads: a per-layer
// metric of a layer a workload does not run reads 0 there (no server
// answers a request in artifacts; nothing is fast-forwarded in serve).
// BENCHMARK.json must declare the same metrics with the same units
// (TestUnitsMatchBenchmarkJSON).
var endToEnd = map[string]string{
	"setup_s":     "s",
	"latency_ms":  "ms",
	"peak_rss_mb": "MiB",
}

var perLayer = map[string]string{
	// The simulator, timed in the benchmark's own processes: the
	// artifact sets of artifacts and sampled, and for serve the direct
	// simulation of every served cell that the check compares with.
	"workload.build_ms":        "ms",
	"trace.record_ns_per_inst": "ns/inst",
	"trace.recorded_minsts":    "Minsts",
	"trace.hits":               "count",
	"trace.misses":             "count",
	"cpu.ns_per_inst":          "ns/inst",
	"cpu.ns_per_cycle":         "ns/cycle",
	"cpu.skip_frac":            "fraction",
	"cpu.jumps":                "count",
	"sample.ff_minsts":         "Minsts",
	"sample.ckpt_hits":         "count",
	"sample.ckpt_misses":       "count",

	// Flat CPU-profile shares of the measured processes: the artifact
	// process, or both serve nodes (see profilePackages).
	"prof.cpu_share":     "fraction",
	"prof.mem_share":     "fraction",
	"prof.sbuf_share":    "fraction",
	"prof.predict_share": "fraction",
	"prof.vm_share":      "fraction",
	"prof.trace_share":   "fraction",
	"prof.sample_share":  "fraction",
	"prof.runtime_share": "fraction",
	"prof.serve_share":   "fraction",
	"prof.nethttp_share": "fraction",
	"prof.json_share":    "fraction",
	"prof.sim_share":     "fraction",

	// The serving side, over the open-loop window of serve.
	"serve.server_busy_s":     "s",
	"serve.http_overhead_s":   "s",
	"serve.tier.mem":          "count",
	"serve.tier.sim":          "count",
	"serve.tier.peer":         "count",
	"serve.tier.dedup":        "count",
	"serve.cache_hits":        "count",
	"serve.cache_misses":      "count",
	"serve.rejected":          "count",
	"cluster.peer_batch_rpcs": "count",
	"cluster.peer_fills":      "count",
	"cluster.coalesced_fills": "count",
	"cluster.warm_pushes":     "count",
	"cluster.sims":            "count",
	"gen.late_sends":          "count",
}

// serveLayerNames are the per-layer metrics of the serving side; a
// workload that starts no server reports each as 0.
func serveLayerNames() []string {
	var out []string
	for n := range perLayer {
		if strings.HasPrefix(n, "serve.") || strings.HasPrefix(n, "cluster.") || strings.HasPrefix(n, "gen.") {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// set records one metric; every name must be declared.
func (r *result) set(name string, v float64) {
	u, ok := endToEnd[name]
	if !ok {
		u, ok = perLayer[name]
	}
	if !ok {
		panic(fmt.Sprintf("psbbench: metric %q is not declared", name))
	}
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{v, u}
}

// checkMetricSet reports an error unless the result holds exactly the
// metrics of its list: the end-to-end ones, or the per-layer ones for a
// traced run.
func checkMetricSet(r result, traced bool) error {
	want := endToEnd
	if traced {
		want = perLayer
	}
	var missing, extra []string
	for n := range want {
		if _, ok := r.Metrics[n]; !ok {
			missing = append(missing, n)
		}
	}
	for n := range r.Metrics {
		if _, ok := want[n]; !ok {
			extra = append(extra, n)
		}
	}
	if len(missing)+len(extra) > 0 {
		sort.Strings(missing)
		sort.Strings(extra)
		return fmt.Errorf("result metrics: missing %v, unexpected %v", missing, extra)
	}
	return nil
}
