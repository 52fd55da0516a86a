package sim_test

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vm"
	"repro/internal/workload"
)

// TestRecordingHoldsTraceNeed: a recording made for a run holds
// exactly TraceNeed records with no spare capacity, and a sampled run
// sharing the key extends it to the sampled budget, again exactly.
func TestRecordingHoldsTraceNeed(t *testing.T) {
	w, err := workload.ByName("health")
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.Default()
	cfg.MaxInsts = 12_345
	sampled := cfg
	sampled.SampleMode = sim.SampleOn
	if sim.TraceNeed(sampled) <= sim.TraceNeed(cfg) {
		t.Fatal("sampled budget does not exceed the exact one; the extension leg tests nothing")
	}
	var c trace.Cache
	for _, rc := range []sim.Config{cfg, sampled} {
		need := sim.TraceNeed(rc)
		rep, err := c.Source(sim.TraceKey(w, rc), need, "", func() *vm.Machine { return w.Build(rc.Seed) })
		if err != nil {
			t.Fatal(err)
		}
		if rec := rep.Rest(); uint64(len(rec)) != need || uint64(cap(rec)) != need {
			t.Errorf("sample=%v: recording len/cap = %d/%d, want TraceNeed = %d", rc.SampleMode, len(rec), cap(rec), need)
		}
	}
}

// TestReplayEquivalence is the tentpole determinism guarantee: for
// every workload under every paper scheme (plus the no-prefetch base),
// a run that replays the shared trace cache produces a Result equal
// field-for-field to a live functional-execution run. reflect.DeepEqual
// covers every counter, including the Fig4 histogram pointer targets.
func TestReplayEquivalence(t *testing.T) {
	cfg := sim.Default()
	cfg.MaxInsts = 25_000
	traced := cfg
	traced.TraceMode = sim.TraceMemory

	for _, w := range workload.All() {
		for _, v := range experiments.Schemes() {
			live := sim.Run(w, v, cfg)
			replay := sim.Run(w, v, traced)
			if !reflect.DeepEqual(live, replay) {
				t.Errorf("%s/%s: traced result differs from live result\nlive:   %+v\nreplay: %+v",
					w.Name, v, live, replay)
			}
		}
	}
}

// TestReplayEquivalenceFig4 covers the histogram-collecting path: the
// delta histogram is fed from the committed stream, so replay must
// reproduce it bit-for-bit too.
func TestReplayEquivalenceFig4(t *testing.T) {
	cfg := sim.Default()
	cfg.MaxInsts = 25_000
	cfg.CollectFig4 = true
	traced := cfg
	traced.TraceMode = sim.TraceMemory

	w := workload.All()[0]
	live := sim.Run(w, core.None, cfg)
	replay := sim.Run(w, core.None, traced)
	if !reflect.DeepEqual(live, replay) {
		t.Fatalf("%s: Fig4 traced result differs from live result", w.Name)
	}
}

// TestReplayEquivalenceDisk exercises the persistent path end to end:
// record to a trace directory, then a second run loads the .psbtrace
// file and must still match live execution exactly.
func TestReplayEquivalenceDisk(t *testing.T) {
	cfg := sim.Default()
	cfg.MaxInsts = 25_000
	// A fresh budget value keys this test's cache entries away from
	// the in-memory entries other tests already recorded, so the disk
	// path actually records and loads.
	cfg.MaxInsts++

	disk := cfg
	disk.TraceMode = sim.TraceDisk
	disk.TraceDir = t.TempDir()

	w := workload.All()[0]
	v := core.PSBConfPriority
	live := sim.Run(w, v, cfg)
	first := sim.Run(w, v, disk)  // records + persists
	second := sim.Run(w, v, disk) // replays (memory or disk)
	if !reflect.DeepEqual(live, first) || !reflect.DeepEqual(live, second) {
		t.Fatal("disk-traced results differ from live execution")
	}
}

// TestRunCheckedTraced covers the errors-as-values path with tracing
// on, and the validation rules for the trace fields.
func TestRunCheckedTraced(t *testing.T) {
	cfg := sim.Default()
	cfg.MaxInsts = 10_000
	cfg.TraceMode = sim.TraceDisk
	if err := cfg.Validate(); err == nil {
		t.Fatal("TraceDisk without TraceDir must fail validation")
	}
	cfg.TraceMode = sim.TraceMode(99)
	if err := cfg.Validate(); err == nil {
		t.Fatal("unknown trace mode must fail validation")
	}
	cfg.TraceMode = sim.TraceMemory
	if err := cfg.Validate(); err != nil {
		t.Fatalf("TraceMemory config rejected: %v", err)
	}
}

// TestRunMatrixTracedEquivalence runs the full experiment matrix twice
// — live and traced, parallel — and requires identical matrices. This
// is the whole-pipeline form of the per-cell equivalence test,
// covering the warm-up coordination in internal/experiments. The trace
// mode is not part of a cell's fingerprint, so each matrix gets an
// empty result table; sharing one would compare live cells with
// themselves.
func TestRunMatrixTracedEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full matrix in -short mode")
	}
	cfg := sim.Default()
	cfg.MaxInsts = 10_000
	cfg.Workers = -1

	matrix := func(c sim.Config) *experiments.Matrix {
		return experiments.NewSession(context.Background(), c,
			runner.Options{Retries: 1, Checkpoint: runner.NewCheckpoint()}).Matrix()
	}
	live := matrix(cfg)
	traced := cfg
	traced.TraceMode = sim.TraceMemory
	replay := matrix(traced)

	if !reflect.DeepEqual(live.Results, replay.Results) {
		t.Fatal("traced matrix differs from live matrix")
	}
	if live.Failed() != 0 || replay.Failed() != 0 {
		t.Fatalf("matrix cells failed: live=%d traced=%d", live.Failed(), replay.Failed())
	}
}
