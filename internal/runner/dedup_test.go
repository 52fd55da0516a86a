package runner

import (
	"context"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestRunCheckedSimulatesDuplicatesOnce: a job list carrying the same
// fingerprint several times simulates it once — the fault hook runs
// once per distinct cell, serially and with four workers — and every
// duplicate gets the simulated cell's result, marked as reused.
func TestRunCheckedSimulatesDuplicatesOnce(t *testing.T) {
	cfg := smallCfg()
	a := Job{Workload: workload.All()[0], Variant: core.PSBConfPriority, Config: cfg}
	b := Job{Workload: workload.All()[1], Variant: core.None, Config: cfg}
	// Workers is not part of the fingerprint: this a is a duplicate.
	a4 := a
	a4.Config.Workers = 4
	jobs := []Job{a, b, a, b, a4}
	for _, workers := range []int{1, 4} {
		var hooks atomic.Int32
		opts := Options{Checkpoint: NewCheckpoint(), FaultHook: func() { hooks.Add(1) }}
		cells, err := New(workers).RunChecked(context.Background(), jobs, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got := hooks.Load(); got != 2 {
			t.Errorf("workers=%d: fault hook ran %d times, want 2 (one per distinct cell)", workers, got)
		}
		for i, c := range cells {
			if !c.OK() {
				t.Fatalf("workers=%d: cell %d failed: %v", workers, i, c.Err)
			}
			if wantCached := i >= 2; c.Cached != wantCached {
				t.Errorf("workers=%d: cell %d cached = %v, want %v", workers, i, c.Cached, wantCached)
			}
		}
		for _, pair := range [][2]int{{0, 2}, {1, 3}, {0, 4}} {
			if !reflect.DeepEqual(cells[pair[0]].Result, cells[pair[1]].Result) {
				t.Errorf("workers=%d: duplicate cell %d differs from cell %d", workers, pair[1], pair[0])
			}
		}
		if n := opts.Checkpoint.Len(); n != 2 {
			t.Errorf("workers=%d: table holds %d cells, want 2", workers, n)
		}
	}
}

// TestRunCheckedRetriesFailedCells: a failed cell is not stored, so the
// next call simulates it again instead of replaying the failure; once
// it completes, later calls reuse it.
func TestRunCheckedRetriesFailedCells(t *testing.T) {
	jobs := []Job{{Workload: workload.All()[2], Variant: core.None, Config: smallCfg()}}
	var attempts atomic.Int32
	opts := Options{Checkpoint: NewCheckpoint(), FaultHook: func() {
		if attempts.Add(1) == 1 {
			panic("first attempt crashes")
		}
	}}
	for call, want := range []struct {
		ok, cached bool
		attempts   int32
	}{
		{false, false, 1}, // fails; Retries is 0
		{true, false, 2},  // simulated again, succeeds
		{true, true, 2},   // reused, the hook does not run
	} {
		cells, err := New(1).RunChecked(context.Background(), jobs, opts)
		if err != nil {
			t.Fatal(err)
		}
		c := cells[0]
		if c.OK() != want.ok || c.Cached != want.cached || attempts.Load() != want.attempts {
			t.Errorf("call %d: ok=%v cached=%v attempts=%d, want ok=%v cached=%v attempts=%d",
				call, c.OK(), c.Cached, attempts.Load(), want.ok, want.cached, want.attempts)
		}
	}
}

// TestProcessTableOnlyBehindRunChecked: RunChecked with no checkpoint
// records into the process-wide table, while direct Dispatcher submits
// — the cmd/psbserved path, which keeps its own bounded cache — leave
// it untouched.
func TestProcessTableOnlyBehindRunChecked(t *testing.T) {
	saved := process
	process = NewCheckpoint()
	defer func() { process = saved }()

	job := Job{Workload: workload.All()[0], Variant: core.PCStride, Config: smallCfg()}
	d := NewDispatcher(2, 4)
	for i := 0; i < 2; i++ {
		h, err := d.Submit(context.Background(), job, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if c, _ := h.Wait(context.Background()); !c.OK() || c.Cached {
			t.Fatalf("dispatched cell %d: ok=%v cached=%v, want a fresh simulation", i, c.OK(), c.Cached)
		}
	}
	d.Close()
	if n := process.Len(); n != 0 {
		t.Fatalf("dispatcher path left %d cell(s) in the process table, want 0", n)
	}

	for call, wantCached := range []bool{false, true} {
		cells, err := New(1).RunChecked(context.Background(), []Job{job}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !cells[0].OK() || cells[0].Cached != wantCached {
			t.Errorf("RunChecked call %d: ok=%v cached=%v, want cached=%v", call, cells[0].OK(), cells[0].Cached, wantCached)
		}
	}
	if n := process.Len(); n != 1 {
		t.Errorf("process table holds %d cells after RunChecked, want 1", n)
	}
}

// TestRunCheckedConcurrentCallers shares one table between concurrent
// RunChecked calls (run it under -race): every caller gets the same
// results, and the table ends with one entry per distinct cell.
func TestRunCheckedConcurrentCallers(t *testing.T) {
	jobs := matrixJobs(smallCfg())
	want, err := New(2).RunChecked(context.Background(), jobs, Options{Checkpoint: NewCheckpoint()})
	if err != nil {
		t.Fatal(err)
	}
	// Each caller's list carries every cell twice.
	doubled := append(append([]Job(nil), jobs...), jobs...)
	shared := NewCheckpoint()
	const callers = 4
	got := make([][]CellResult, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			got[c], _ = New(2).RunChecked(context.Background(), doubled, Options{Checkpoint: shared})
		}(c)
	}
	wg.Wait()
	for c := range got {
		for i, cell := range got[c] {
			if !cell.OK() || !reflect.DeepEqual(cell.Result, want[i%len(jobs)].Result) {
				t.Fatalf("caller %d cell %d: ok=%v, result differs from a private run", c, i, cell.OK())
			}
		}
	}
	if n := shared.Len(); n != len(jobs) {
		t.Errorf("shared table holds %d cells, want %d", n, len(jobs))
	}
}

// TestFileLessCheckpoint: NewCheckpoint stores and serves cells with no
// journal, and Close is a no-op.
func TestFileLessCheckpoint(t *testing.T) {
	cp := NewCheckpoint()
	j := Job{Workload: workload.All()[0], Variant: core.None, Config: smallCfg()}
	res := sim.Result{Workload: "x"}
	if err := cp.Record(j.Fingerprint(), j, res); err != nil {
		t.Fatal(err)
	}
	if got, ok := cp.Lookup(j.Fingerprint()); !ok || got.Workload != "x" {
		t.Fatalf("Lookup = %+v, %v", got, ok)
	}
	if cp.JournalHits() != 0 {
		t.Errorf("JournalHits = %d for a file-less table, want 0", cp.JournalHits())
	}
	if err := cp.Close(); err != nil {
		t.Errorf("Close = %v", err)
	}
}
