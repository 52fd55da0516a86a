package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/sample"
	"repro/internal/sbuf"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// span is one timed region of a traced run. Times are nanoseconds from
// the start of the traced process.
type span struct {
	ID     int            `json:"id"`
	Parent int            `json:"parent"` // 0 for a root span
	Name   string         `json:"name"`
	Start  int64          `json:"start_ns"`
	End    int64          `json:"end_ns"`
	Attrs  map[string]any `json:"attrs,omitempty"`
}

// spanLog keeps a traced run's spans in memory until it ends.
type spanLog struct {
	origin time.Time
	spans  []span
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

func (l *spanLog) begin(parent int, name string, attrs map[string]any) int {
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent, Name: name,
		Start: time.Since(l.origin).Nanoseconds(), Attrs: attrs})
	return len(l.spans)
}

func (l *spanLog) end(id int) { l.spans[id-1].End = time.Since(l.origin).Nanoseconds() }

// write stores the spans as JSON lines.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// callTimer accumulates the time spent inside one layer's calls. The
// simulator is single-threaded per cell, so it needs no locking.
type callTimer struct {
	busy  time.Duration
	calls uint64
}

func (t *callTimer) since(start time.Time) {
	t.busy += time.Since(start)
	t.calls++
}

// clockCost is what wrapping a call costs when the call itself is
// free: inside is the time a callTimer records for it, total the time
// the wrapper adds to its caller. Layer times are corrected by both so
// the cost of reading the clock is charged to no layer.
type clockCost struct{ inside, total float64 } // ns per call

func calibrateClock() clockCost {
	const n = 1 << 20
	var t callTimer
	start := time.Now()
	for i := 0; i < n; i++ {
		t.since(time.Now())
	}
	return clockCost{inside: float64(t.busy) / n, total: float64(time.Since(start)) / n}
}

// timedPrefetcher times every call the core makes into the stream
// buffer engine (Stats is bookkeeping and untimed).
type timedPrefetcher struct {
	pf sbuf.Prefetcher
	t  *callTimer
}

func (p *timedPrefetcher) Lookup(cycle, addr uint64) (sbuf.LookupKind, uint64) {
	s := time.Now()
	k, r := p.pf.Lookup(cycle, addr)
	p.t.since(s)
	return k, r
}

func (p *timedPrefetcher) AllocationRequest(cycle, pc, addr uint64) {
	s := time.Now()
	p.pf.AllocationRequest(cycle, pc, addr)
	p.t.since(s)
}

func (p *timedPrefetcher) Train(pc, addr uint64) {
	s := time.Now()
	p.pf.Train(pc, addr)
	p.t.since(s)
}

func (p *timedPrefetcher) Tick(cycle uint64) {
	s := time.Now()
	p.pf.Tick(cycle)
	p.t.since(s)
}

func (p *timedPrefetcher) Stats() sbuf.Stats { return p.pf.Stats() }

// timedRangePrefetcher adds the batched-tick fast path. The core finds
// it by type assertion, so the wrapper must offer it exactly when the
// wrapped prefetcher does; otherwise event mode would fall back to
// ticking cycle by cycle and the traced run would measure a different
// program.
type timedRangePrefetcher struct {
	timedPrefetcher
	rt interface{ TickRange(from, to uint64) }
}

func (p *timedRangePrefetcher) TickRange(from, to uint64) {
	s := time.Now()
	p.rt.TickRange(from, to)
	p.t.since(s)
}

func timePrefetcher(pf sbuf.Prefetcher, t *callTimer) sbuf.Prefetcher {
	base := timedPrefetcher{pf: pf, t: t}
	if rt, ok := pf.(interface{ TickRange(from, to uint64) }); ok {
		return &timedRangePrefetcher{timedPrefetcher: base, rt: rt}
	}
	return &base
}

// hierFetcher is the surface the stream buffer engine uses of the
// memory hierarchy: the Fetcher methods plus the two optional ones it
// discovers by type assertion (in-page prefetch without a TLB lookup,
// and the bus horizon for range ticks).
type hierFetcher interface {
	sbuf.Fetcher
	sbuf.InPageFetcher
	NextBusFree(cycle uint64) uint64
}

// timedFetcher times the prefetch path into the memory hierarchy.
type timedFetcher struct {
	f hierFetcher
	t *callTimer
}

func (f *timedFetcher) Prefetch(cycle, addr uint64) (uint64, bool) {
	s := time.Now()
	r, hit := f.f.Prefetch(cycle, addr)
	f.t.since(s)
	return r, hit
}

func (f *timedFetcher) PrefetchInPage(cycle, addr uint64) (uint64, bool) {
	s := time.Now()
	r, hit := f.f.PrefetchInPage(cycle, addr)
	f.t.since(s)
	return r, hit
}

func (f *timedFetcher) BusFreeAt(cycle uint64) bool {
	s := time.Now()
	ok := f.f.BusFreeAt(cycle)
	f.t.since(s)
	return ok
}

func (f *timedFetcher) L1Resident(addr uint64) bool {
	s := time.Now()
	ok := f.f.L1Resident(addr)
	f.t.since(s)
	return ok
}

func (f *timedFetcher) NextBusFree(cycle uint64) uint64 {
	s := time.Now()
	c := f.f.NextBusFree(cycle)
	f.t.since(s)
	return c
}

// runTimed simulates one exact cell through sim.RunWithPrefetcher with
// the prefetcher and its memory-side fetcher wrapped in timers. The
// caller must not pass Figure 4 or sampled cells: RunWithPrefetcher
// attaches no delta histogram and does not sample.
func runTimed(j runner.Job, pt, ft *callTimer) sim.Result {
	cfg := j.Config
	r := sim.RunWithPrefetcher(j.Workload, cfg, func(fetch sbuf.Fetcher) sbuf.Prefetcher {
		hf, ok := fetch.(hierFetcher)
		if !ok {
			panic(fmt.Sprintf("psbbench: fetcher %T lacks the hierarchy's optional methods", fetch))
		}
		// The same block-size sync sim's own machine builder applies,
		// which RunWithPrefetcher leaves to the caller.
		opts := cfg.Opts
		opts.Buffers.BlockBytes = cfg.Mem.L1D.BlockBytes
		opts.SFM.BlockShift = blockShift(cfg.Mem.L1D.BlockBytes)
		return timePrefetcher(core.NewWithOptions(j.Variant, opts, &timedFetcher{f: hf, t: ft}), pt)
	})
	r.Variant = j.Variant
	return r
}

func blockShift(blockBytes int) uint {
	s := uint(0)
	for 1<<s < blockBytes {
		s++
	}
	return s
}

// simTimers accumulates a traced process's simulator-layer
// measurements over the workloads it builds and the cells it runs.
type simTimers struct {
	clock   clockCost
	pt, ft  callTimer
	buildNs float64 // Workload.Build
	warmNs  float64 // sim.WarmTrace, which builds again before recording

	// Exact cells run through runTimed.
	timedNs            float64
	insts, timedCycles uint64
	// Sampled cells, timed whole.
	sampledNs                float64
	ffInsts, detailedInsts   uint64
	sampledCycles, measInsts uint64
	// Every cell.
	cycles, skipped, jumps uint64
}

func newSimTimers() *simTimers { return &simTimers{clock: calibrateClock()} }

// warm builds w at seed and records its trace, timing both.
func (st *simTimers) warm(w workload.Workload, cfg sim.Config, spans *spanLog, parent int) error {
	id := spans.begin(parent, "workload.build", map[string]any{"workload": w.Name, "seed": cfg.Seed})
	t := time.Now()
	w.Build(cfg.Seed)
	st.buildNs += float64(time.Since(t))
	spans.end(id)
	id = spans.begin(parent, "trace.warm", map[string]any{"workload": w.Name, "seed": cfg.Seed})
	t = time.Now()
	err := sim.WarmTrace(w, cfg)
	st.warmNs += float64(time.Since(t))
	spans.end(id)
	return err
}

// run simulates one cell: exact cells other than Figure 4 ones through
// runTimed, the rest on the measured path, timed whole.
func (st *simTimers) run(j runner.Job) runner.CellResult {
	c := j.Config
	start := time.Now()
	var out runner.CellResult
	if c.CollectFig4 || c.SampleMode != sim.SampleOff {
		// No outside seam for these.
		out = checkedExec(0)([]runner.Job{j})[0]
		if e := out.Result.Sampled; e != nil {
			st.sampledNs += float64(time.Since(start))
			st.ffInsts += e.FunctionalInsts
			st.detailedInsts += e.MeasuredInsts + e.CertaintyInsts + e.WarmupInsts
			st.measInsts += e.MeasuredInsts + e.CertaintyInsts
			st.sampledCycles += out.Result.CPU.Cycles
		}
	} else {
		r := runTimed(j, &st.pt, &st.ft)
		st.timedNs += float64(time.Since(start))
		out = runner.CellResult{Result: r, Attempts: 1}
		st.insts += r.CPU.Committed
		st.timedCycles += r.CPU.Cycles
	}
	st.cycles += out.Result.CPU.Cycles
	st.skipped += out.Result.CPU.SkippedCycles
	st.jumps += out.Result.CPU.Jumps
	return out
}

// layers returns the simulator's per-layer metrics, and in detail the
// figures that not every workload can measure: the prefetcher and
// fetcher timers (exact cells only) and the fast-forward rate (sampled
// cells only, which ffProbe times when non-nil).
func (st *simTimers) layers(ffProbe func() (ns float64, insts uint64)) (L, detail map[string]float64) {
	L, detail = map[string]float64{}, map[string]float64{}
	ts := trace.Shared().Stats()
	L["workload.build_ms"] = st.buildNs / 1e6
	L["trace.record_ns_per_inst"] = (st.warmNs - st.buildNs) / float64(ts.RecordedInsts)
	L["trace.recorded_minsts"] = float64(ts.RecordedInsts) / 1e6
	L["trace.hits"] = float64(ts.Hits)
	L["trace.misses"] = float64(ts.Misses)
	L["cpu.skip_frac"] = float64(st.skipped) / float64(st.cycles)
	L["cpu.jumps"] = float64(st.jumps)
	ss := sample.Shared().Stats()
	L["sample.ff_minsts"] = float64(st.ffInsts) / 1e6
	L["sample.ckpt_hits"] = float64(ss.Hits)
	L["sample.ckpt_misses"] = float64(ss.Misses)
	if st.insts > 0 {
		// Subtract what the timers themselves cost, so clock reads are
		// charged to no layer. Fetcher calls run inside prefetcher calls:
		// the prefetcher's time includes the memory side's, and the
		// fetcher timers' whole cost.
		pcalls, fcalls := float64(st.pt.calls), float64(st.ft.calls)
		sbufNs := float64(st.pt.busy) - pcalls*st.clock.inside - fcalls*st.clock.total
		memNs := float64(st.ft.busy) - fcalls*st.clock.inside
		cpuNs := st.timedNs - pcalls*(st.clock.total-st.clock.inside) - float64(st.pt.busy)
		L["cpu.ns_per_inst"] = cpuNs / float64(st.insts)
		L["cpu.ns_per_cycle"] = cpuNs / float64(st.timedCycles)
		detail["sbuf.busy_s"] = sbufNs / 1e9
		detail["sbuf.calls"] = pcalls
		detail["sbuf.ns_per_call"] = sbufNs / pcalls
		detail["mem.prefetch_busy_s"] = memNs / 1e9
		detail["mem.prefetch_calls"] = fcalls
	} else if st.detailedInsts > 0 && ffProbe != nil {
		ffNs, n := ffProbe()
		perInst := ffNs / float64(n)
		detail["sample.ff_ns_per_inst"] = perInst
		detail["sample.detailed_minsts"] = float64(st.detailedInsts) / 1e6
		detail["sample.ckpt_hit_rate"] = float64(ss.Hits) / float64(ss.Hits+ss.Misses)
		// Detailed core time is what the sampled cells took beyond
		// their fast-forward work; warm-up cycles are not reported, so
		// they are assumed to run at the measured CPI.
		cpuNs := st.sampledNs - float64(st.ffInsts)*perInst
		L["cpu.ns_per_inst"] = cpuNs / float64(st.detailedInsts)
		L["cpu.ns_per_cycle"] = cpuNs / (float64(st.sampledCycles) * float64(st.detailedInsts) / float64(st.measInsts))
	}
	return L, detail
}
