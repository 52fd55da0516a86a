package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/experiments"
	"repro/internal/runner"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vm"
	"repro/internal/workload"
)

// workerResult is what a worker process reports back in result.json.
type workerResult struct {
	SetupS float64            `json:"setup_s"`
	WallS  float64            `json:"wall_s"`
	Cells  []cellRecord       `json:"cells"`
	Layers map[string]float64 `json:"layers,omitempty"`
	// Detail holds layer figures that not every workload measures; they
	// go to the run's record, not the result line.
	Detail map[string]float64 `json:"detail,omitempty"`
	// Digests holds the expect worker's answers, one per input cell.
	Digests []string `json:"digests,omitempty"`
}

// cellRecord is one simulated cell of an artifact run, in the order
// the cells were first run.
type cellRecord struct {
	Workload    string  `json:"workload"`
	Scheme      string  `json:"scheme"`
	Fingerprint string  `json:"fingerprint"`
	Matrix      bool    `json:"matrix"`           // a Figure 5-9 matrix cell
	Digest      string  `json:"digest,omitempty"` // sha256 of serve.EncodeResult
	Err         string  `json:"err,omitempty"`
	IPC         float64 `json:"ipc"`
	SampledIPC  float64 `json:"sampled_ipc,omitempty"`
}

// workerMain runs one measured or checking task in this fresh process:
//
//	setup      build every workload and record its trace
//	artifacts  setup, then the whole artifact set (report.txt)
//	reference  the exact Figure 5-9 matrix on two workers (report.txt)
//	expect     the canonical bytes of the serve cells listed in --cells;
//	           traced, serially with the simulator's layer timers
func workerMain(args []string) int {
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "psbbench worker: need a task")
		return 2
	}
	task := args[0]
	fl := flag.NewFlagSet("worker", flag.ContinueOnError)
	var (
		out     = fl.String("out", "", "directory for result.json and report.txt")
		seed    = fl.Int64("seed", 1, "workload layout seed")
		sampled = fl.Bool("sampled", false, "sampled simulation for every cell")
		traced  = fl.Bool("traced", false, "record spans, layer timers and a CPU profile")
		insts   = fl.Uint64("insts", 0, "instruction budget of the expect cells")
		cells   = fl.String("cells", "", "JSON list of cells for the expect task")
	)
	if err := fl.Parse(args[1:]); err != nil || *out == "" {
		return 2
	}
	cfg := sim.Default()
	cfg.Seed = *seed
	cfg.TraceMode = sim.TraceMemory
	if *sampled {
		cfg.SampleMode = sim.SampleOn
	}
	var (
		res workerResult
		err error
	)
	switch task {
	case "setup":
		res.SetupS, err = setup(cfg, nil, nil)
	case "artifacts":
		res, err = artifactsTask(cfg, *traced, *out)
	case "reference":
		cfg.Workers = 2
		res, err = referenceTask(cfg, *out)
	case "expect":
		res, err = expectTask(*cells, *insts, *traced, *out)
	default:
		err = fmt.Errorf("unknown task %q", task)
	}
	if err == nil {
		err = writeJSON(filepath.Join(*out, "result.json"), res)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "psbbench worker:", err)
		return 1
	}
	return 0
}

// setup is the work every psbtables invocation pays before its first
// cell: build each workload and record its trace into the process-wide
// cache. A traced setup also times Build alone (on a throwaway machine)
// so recording can be told apart from construction.
func setup(cfg sim.Config, spans *spanLog, st *simTimers) (float64, error) {
	start := time.Now()
	root := 0
	if spans != nil {
		root = spans.begin(0, "setup", nil)
	}
	for _, w := range workload.All() {
		var err error
		if st != nil {
			err = st.warm(w, cfg, spans, root)
		} else {
			err = sim.WarmTrace(w, cfg)
		}
		if err != nil {
			return 0, err
		}
	}
	if spans != nil {
		spans.end(root)
	}
	return time.Since(start).Seconds(), nil
}

// artifactMemo replays a job list it has already run. The artifact
// registry rebuilds the Figure 5-9 matrix for every matrix-backed
// artifact, where psbtables builds it once and renders all six from
// it; every other list (Figures 4, 10 and 11, which share some cells
// with the matrix) runs in full, as it does in psbtables.
type artifactMemo struct {
	exec  func(jobs []runner.Job) []runner.CellResult
	lists map[string][]runner.CellResult
	ran   []runner.Job // every job executed, in order
	cells []runner.CellResult
}

func newMemo(exec func(jobs []runner.Job) []runner.CellResult) *artifactMemo {
	return &artifactMemo{exec: exec, lists: map[string][]runner.CellResult{}}
}

func (m *artifactMemo) run(jobs []runner.Job) []runner.CellResult {
	var key strings.Builder
	for _, j := range jobs {
		key.WriteString(j.Fingerprint())
	}
	if cells, ok := m.lists[key.String()]; ok {
		return cells
	}
	cells := m.exec(jobs)
	m.lists[key.String()] = cells
	m.ran = append(m.ran, jobs...)
	m.cells = append(m.cells, cells...)
	return cells
}

// render produces the named artifacts exactly as psbtables prints them
// (each table followed by a blank line).
func render(names []string, cfg sim.Config, m *artifactMemo) (string, error) {
	var b strings.Builder
	for _, name := range names {
		t, err := experiments.Artifact(name, cfg, m.run)
		if err != nil {
			return "", err
		}
		b.WriteString(t.String())
		b.WriteString("\n")
	}
	return b.String(), nil
}

// records digests every cell the memo ran, in run order.
func (m *artifactMemo) records(base sim.Config) []cellRecord {
	matrix := map[string]bool{}
	for _, w := range workload.All() {
		for _, v := range experiments.Schemes() {
			matrix[runner.Job{Workload: w, Variant: v, Config: base}.Fingerprint()] = true
		}
	}
	out := make([]cellRecord, 0, len(m.ran))
	for i, j := range m.ran {
		fp := j.Fingerprint()
		c := m.cells[i]
		r := cellRecord{Workload: j.Workload.Name, Scheme: j.Variant.String(), Fingerprint: fp, Matrix: matrix[fp]}
		if c.Err != nil {
			r.Err = c.Err.Error()
		} else {
			r.Digest = digest(serve.EncodeResult(c.Result))
			r.IPC = c.Result.IPC()
			if e := c.Result.Sampled; e != nil {
				r.SampledIPC = e.IPC
			}
		}
		out = append(out, r)
	}
	return out
}

func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// checkedExec is the executor experiments.Session uses: the fault-
// isolating runner path with psbtables' default options.
func checkedExec(workers int) func(jobs []runner.Job) []runner.CellResult {
	return func(jobs []runner.Job) []runner.CellResult {
		cells, _ := runner.ForWorkers(workers).RunChecked(context.Background(), jobs, runner.Options{Retries: 1})
		return cells
	}
}

// artifactsTask is one repetition of the artifacts or sampled
// workload: setup, then the whole artifact set serially. The traced
// variant records a span per workload build, trace warm-up and cell,
// times the prefetcher and fetcher calls of every exact cell, and
// profiles the process.
func artifactsTask(cfg sim.Config, traced bool, out string) (workerResult, error) {
	if !traced {
		var res workerResult
		var err error
		if res.SetupS, err = setup(cfg, nil, nil); err != nil {
			return res, err
		}
		m := newMemo(checkedExec(0))
		start := time.Now()
		report, err := render(experiments.ArtifactNames(), cfg, m)
		res.WallS = time.Since(start).Seconds()
		if err != nil {
			return res, err
		}
		res.Cells = m.records(cfg)
		return res, os.WriteFile(filepath.Join(out, "report.txt"), []byte(report), 0o644)
	}
	return tracedArtifactsTask(cfg, out)
}

func tracedArtifactsTask(cfg sim.Config, out string) (workerResult, error) {
	res := workerResult{}
	st := newSimTimers()
	prof, err := os.Create(filepath.Join(out, "cpu.pprof"))
	if err != nil {
		return res, err
	}
	defer prof.Close()
	if err := pprof.StartCPUProfile(prof); err != nil {
		return res, err
	}
	spans := newSpanLog()
	if res.SetupS, err = setup(cfg, spans, st); err != nil {
		pprof.StopCPUProfile()
		return res, err
	}
	cellsRoot := spans.begin(0, "cells", nil)
	exec := func(jobs []runner.Job) []runner.CellResult {
		out := make([]runner.CellResult, len(jobs))
		for i, j := range jobs {
			c := j.Config
			id := spans.begin(cellsRoot, "cell", map[string]any{"workload": j.Workload.Name,
				"scheme": j.Variant.String(), "fig4": c.CollectFig4, "sampled": c.SampleMode != sim.SampleOff})
			out[i] = st.run(j)
			spans.end(id)
		}
		return out
	}
	m := newMemo(exec)
	start := time.Now()
	report, err := render(experiments.ArtifactNames(), cfg, m)
	res.WallS = time.Since(start).Seconds()
	spans.end(cellsRoot)
	if err != nil {
		pprof.StopCPUProfile()
		return res, err
	}
	res.Layers, res.Detail = st.layers(func() (float64, uint64) { return timeFastForward(cfg, spans) })
	pprof.StopCPUProfile()
	if err := prof.Close(); err != nil {
		return res, err
	}
	byPkg, err := flatByPackage(prof.Name())
	if err != nil {
		return res, err
	}
	for name, pkgs := range profilePackages {
		res.Layers["prof."+name+"_share"] = shareOf(byPkg, pkgs...)
	}
	res.Cells = m.records(cfg)
	if err := spans.write(filepath.Join(out, "spans.jsonl")); err != nil {
		return res, err
	}
	return res, os.WriteFile(filepath.Join(out, "report.txt"), []byte(report), 0o644)
}

// profilePackages names the layers of the flat profile shares, the
// same for every workload. The artifact process of artifacts and
// sampled runs no server, so its serve share is only the runner's and
// its nethttp and json shares are 0; the serve nodes run the simulator
// for every fresh cell. The
// sim share is the whole simulator, so it overlaps the layer shares
// above it.
var profilePackages = map[string][]string{
	"cpu":     {"repro/internal/cpu"},
	"mem":     {"repro/internal/mem"},
	"sbuf":    {"repro/internal/sbuf"},
	"predict": {"repro/internal/predict"},
	"vm":      {"repro/internal/vm"},
	"trace":   {"repro/internal/trace"},
	"sample":  {"repro/internal/sample"},
	"runtime": {"runtime", "runtime/", "internal/runtime/"},
	"serve":   {"repro/internal/serve", "repro/internal/cluster", "repro/internal/runner"},
	"nethttp": {"net/http", "net/http/", "net", "net/", "internal/poll", "syscall", "internal/runtime/syscall"},
	"json":    {"encoding/json"},
	"sim": {"repro/internal/sim", "repro/internal/cpu", "repro/internal/mem", "repro/internal/sbuf",
		"repro/internal/predict", "repro/internal/vm", "repro/internal/trace", "repro/internal/core",
		"repro/internal/workload", "repro/internal/sample", "repro/internal/demand", "repro/internal/isa"},
}

// timeFastForward times the functional executor alone over every
// workload's recording, from a cold start to the end of the stream.
func timeFastForward(cfg sim.Config, spans *spanLog) (ns float64, insts uint64) {
	for _, w := range workload.All() {
		rep, err := trace.Shared().Source(sim.TraceKey(w, cfg), sim.TraceNeed(cfg), "",
			func() *vm.Machine { return w.Build(cfg.Seed) })
		if err != nil {
			continue
		}
		id := spans.begin(0, "sample.fast_forward", map[string]any{"workload": w.Name})
		f := cpu.NewFunctional(cfg.Mem, cfg.CPU.Gshare, rep.Rest())
		start := time.Now()
		insts += f.AdvanceTo(uint64(rep.Len()))
		ns += float64(time.Since(start))
		spans.end(id)
	}
	return ns, insts
}

// referenceTask computes the exact Figure 5-9 matrix for the sampled
// workload's accuracy metrics. It is off the clock, so it uses two
// workers; results do not depend on the worker count.
func referenceTask(cfg sim.Config, out string) (workerResult, error) {
	var res workerResult
	m := newMemo(checkedExec(cfg.Workers))
	report, err := render([]string{"fig5"}, cfg, m)
	if err != nil {
		return res, err
	}
	res.Cells = m.records(cfg)
	return res, os.WriteFile(filepath.Join(out, "report.txt"), []byte(report), 0o644)
}

// expectTask simulates each listed serve cell directly and digests its
// canonical encoding, on two workers. Traced, it runs them serially
// instead, building each distinct (workload, seed) and recording its
// trace first, with the simulator's layer timers on; the digests must
// come out the same.
func expectTask(cellsPath string, insts uint64, traced bool, out string) (workerResult, error) {
	var res workerResult
	var keys []cellKey
	if err := readJSON(cellsPath, &keys); err != nil {
		return res, err
	}
	jobs := make([]runner.Job, len(keys))
	for i, k := range keys {
		w, err := workload.ByName(k.Bench)
		if err != nil {
			return res, fmt.Errorf("cell %+v: %w", k, err)
		}
		v, err := core.VariantByName(k.Scheme)
		if err != nil {
			return res, fmt.Errorf("cell %+v: %w", k, err)
		}
		cfg := serveBaseConfig(insts)
		cfg.Seed = k.Seed
		jobs[i] = runner.Job{Workload: w, Variant: v, Config: cfg}
	}
	res.Digests = make([]string, len(keys))
	if traced {
		return res, expectTraced(jobs, &res, out)
	}
	errs := make([]error, len(keys))
	runner.ForWorkers(2).Map(len(keys), func(i int) {
		j := jobs[i]
		r, err := sim.RunChecked(context.Background(), j.Workload, j.Variant, j.Config)
		if err != nil {
			errs[i] = err
			return
		}
		res.Digests[i] = digest(serve.EncodeResult(r))
	})
	for i, err := range errs {
		if err != nil {
			return res, fmt.Errorf("cell %+v: %w", keys[i], err)
		}
	}
	return res, nil
}

func expectTraced(jobs []runner.Job, res *workerResult, out string) error {
	st := newSimTimers()
	spans := newSpanLog()
	setupRoot := spans.begin(0, "setup", nil)
	built := map[string]bool{}
	for _, j := range jobs {
		key := fmt.Sprintf("%s/%d", j.Workload.Name, j.Config.Seed)
		if built[key] {
			continue
		}
		built[key] = true
		if err := st.warm(j.Workload, j.Config, spans, setupRoot); err != nil {
			return err
		}
	}
	spans.end(setupRoot)
	cellsRoot := spans.begin(0, "cells", nil)
	for i, j := range jobs {
		id := spans.begin(cellsRoot, "cell", map[string]any{"workload": j.Workload.Name,
			"scheme": j.Variant.String(), "seed": j.Config.Seed})
		c := st.run(j)
		spans.end(id)
		if c.Err != nil {
			return fmt.Errorf("cell %s/%s seed %d: %w", j.Workload.Name, j.Variant, j.Config.Seed, c.Err)
		}
		res.Digests[i] = digest(serve.EncodeResult(c.Result))
	}
	spans.end(cellsRoot)
	res.Layers, res.Detail = st.layers(nil)
	return spans.write(filepath.Join(out, "spans.jsonl"))
}

// serveBaseConfig is the base configuration psbserved builds from its
// flags as this benchmark starts it (-insts, default seed and trace).
func serveBaseConfig(insts uint64) sim.Config {
	cfg := sim.Default()
	cfg.MaxInsts = insts
	cfg.TraceMode = sim.TraceMemory
	return cfg
}
