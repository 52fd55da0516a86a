// Command psbbench is the repository's benchmark. One invocation runs
// one named workload for a given seed and length, checks that the
// program's outputs are correct, and prints one JSON object as the last
// line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"latency_ms": {"value": 6012.3, "unit": "ms"}, ...}}
//
// With --trace 0 the metrics are the end-to-end ones named in
// BENCHMARK.json; with --trace 1 they are the per-layer ones, measured
// in a separate traced run. Every workload prints every metric of the
// list (see metrics.go). Workloads:
//
//	artifacts  the full artifact set (psbtables -all) at 500K insts, exact
//	sampled    the same set with sampled simulation on
//	serve      two psbserved nodes in one ring under open-loop traffic
//
// Every timed repetition runs in a fresh child process with the
// environment pinned (see cleanEnv). Progress goes to standard error;
// a record with the host identity is written under --out.
//
// Run it from the repository root through psbbench/run.sh, which builds
// this command and the daemon first:
//
//	bash psbbench/run.sh --workload artifacts --seed 1 --seconds 25 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "worker" {
		os.Exit(workerMain(os.Args[2:]))
	}
	os.Exit(benchMain(os.Args[1:]))
}

// metric is one named number of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runCtx is what every workload runner gets.
type runCtx struct {
	Root    string        // repository root (holds go.mod and artifacts_full.txt)
	Out     string        // benchmark output directory
	Dir     string        // this run's scratch directory, removed at exit
	Bin     string        // this executable, re-run for worker processes
	Seed    int64         // input seed
	Seconds time.Duration // measuring time
	Traced  bool
	Notes   map[string]any // extra facts for the record file
}

func benchMain(args []string) int {
	fl := flag.NewFlagSet("psbbench", flag.ContinueOnError)
	var (
		wl      = fl.String("workload", "", "workload: artifacts, sampled or serve")
		seed    = fl.Int64("seed", 1, "input seed")
		seconds = fl.Int("seconds", 25, "how long one run measures")
		trace   = fl.Int("trace", 0, "0 = end-to-end metrics, 1 = traced run with per-layer metrics")
		root    = fl.String("root", ".", "repository root")
		out     = fl.String("out", "", "output directory (default <root>/.bench_build/psbbench)")
	)
	if err := fl.Parse(args); err != nil {
		return 2
	}
	runners := map[string]func(*runCtx) (result, error){
		"artifacts": func(c *runCtx) (result, error) { return runArtifacts(c, false) },
		"sampled":   func(c *runCtx) (result, error) { return runArtifacts(c, true) },
		"serve":     runServe,
	}
	run, ok := runners[*wl]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "psbbench: need --workload artifacts|sampled|serve, --seconds >= 1, --trace 0|1")
		return 2
	}
	if _, err := os.Stat(filepath.Join(*root, "artifacts_full.txt")); err != nil {
		fmt.Fprintf(os.Stderr, "psbbench: %s is not the repository root: %v\n", *root, err)
		return 2
	}
	if *out == "" {
		*out = filepath.Join(*root, ".bench_build", "psbbench")
	}
	bin, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "psbbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(mkdirAll(*out), "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "psbbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	c := &runCtx{Root: *root, Out: *out, Dir: dir, Bin: bin, Seed: *seed,
		Seconds: time.Duration(*seconds) * time.Second, Traced: *trace == 1, Notes: map[string]any{}}
	host := hostIdentity(*root)
	fmt.Fprintf(os.Stderr, "psbbench: %s seed=%d seconds=%d trace=%d on %s (nproc=%d GOMAXPROCS=%d %s, commit %s dirty=%s)\n",
		*wl, *seed, *seconds, *trace, host.CPUModel, host.NProc, host.GOMAXPROCS, host.GoVersion,
		host.Commit, host.Dirty)

	res, err := run(c)
	if err == nil {
		err = checkMetricSet(res, c.Traced)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "psbbench:", err)
		return 1
	}
	record := map[string]any{"workload": *wl, "seed": *seed, "seconds": *seconds, "trace": *trace,
		"host": host, "result": res, "notes": c.Notes, "time": time.Now().UTC().Format(time.RFC3339)}
	path := filepath.Join(mkdirAll(filepath.Join(*out, "results")),
		fmt.Sprintf("%s-seed%d-trace%d-%d.json", *wl, *seed, *trace, time.Now().UnixNano()))
	if err := writeJSON(path, record); err != nil {
		fmt.Fprintln(os.Stderr, "psbbench:", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "psbbench: record written to %s\n", path)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "psbbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// hostInfo identifies the machine and code a result was measured on.
type hostInfo struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Dirty      string `json:"dirty"`
}

func hostIdentity(root string) hostInfo {
	h := hostInfo{CPUModel: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: "unknown", Dirty: "unknown"}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	// A checkout without git metadata leaves both unknown.
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if b, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			h.Commit = strings.TrimSpace(string(b))
		}
		if b, err := exec.Command("git", "-C", root, "status", "--porcelain", "--untracked-files=no").Output(); err == nil {
			h.Dirty = fmt.Sprint(len(strings.TrimSpace(string(b))) > 0)
		}
	}
	return h
}

// pinnedEnv lists variables stripped from every measured process:
// PSB_CYCLE_MODE silently switches the core to the tick-every-cycle
// loop, PSB_FAULTS arms fault injection in psbserved, and the GO*
// runtime knobs change garbage collection between runs.
var pinnedEnv = []string{"PSB_CYCLE_MODE", "PSB_FAULTS", "GOGC", "GOMEMLIMIT", "GODEBUG"}

// cleanEnv is the environment of every child process.
func cleanEnv() []string {
	var env []string
	for _, kv := range os.Environ() {
		k, _, _ := strings.Cut(kv, "=")
		if !slices.Contains(pinnedEnv, k) {
			env = append(env, kv)
		}
	}
	return env
}

// runChild runs one process to completion with the pinned environment,
// its standard output and error appended to logPath, and returns its
// peak resident set in MiB.
func runChild(logPath, name string, args ...string) (float64, error) {
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return 0, err
	}
	defer logf.Close()
	cmd := exec.Command(name, args...)
	cmd.Env = cleanEnv()
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Run(); err != nil {
		tailLog, _ := os.ReadFile(logPath)
		if len(tailLog) > 2000 {
			tailLog = tailLog[len(tailLog)-2000:]
		}
		return 0, fmt.Errorf("%s %s: %v\n%s", filepath.Base(name), strings.Join(args, " "), err, tailLog)
	}
	return peakRSS(cmd.ProcessState), nil
}

// peakRSS is a finished process's peak resident set in MiB.
func peakRSS(ps *os.ProcessState) float64 {
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return 0
}

func mkdirAll(dir string) string {
	_ = os.MkdirAll(dir, 0o755)
	return dir
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
