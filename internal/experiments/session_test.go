package experiments

import (
	"context"
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// faultyRunner fails the cells selected by bad (keyed by
// workload/variant) and executes the rest normally — fault injection
// for the table renderers without needing a cell to actually crash.
func faultyRunner(bad func(j runner.Job) bool) CellRunner {
	return func(jobs []runner.Job) []runner.CellResult {
		cells := make([]runner.CellResult, len(jobs))
		for i, j := range jobs {
			if bad(j) {
				cells[i] = runner.CellResult{Err: &runner.JobError{
					Workload: j.Workload.Name, Variant: j.Variant,
					Attempts: 1, Err: errors.New("injected failure"),
				}, Attempts: 1}
				continue
			}
			cells[i] = runner.CellResult{Result: sim.Run(j.Workload, j.Variant, j.Config), Attempts: 1}
		}
		return cells
	}
}

// TestPartialMatrixRendersERR fails one benchmark's base cell and one
// other cell, then checks every derived table still renders — with the
// failed cells (and the cells derived from them) marked ERR and all
// other rows intact.
func TestPartialMatrixRendersERR(t *testing.T) {
	victim := workload.All()[1].Name
	m := runMatrixWith(tinyConfig(), faultyRunner(func(j runner.Job) bool {
		// The victim's base dies, plus one scheme cell of another bench.
		return (j.Workload.Name == victim && j.Variant == core.None) ||
			(j.Workload.Name == workload.All()[0].Name && j.Variant == core.PCStride)
	}))

	if m.Failed() != 2 {
		t.Fatalf("Failed() = %d, want 2", m.Failed())
	}
	if m.Err(victim, core.None) == nil {
		t.Fatal("victim base error not recorded")
	}

	for name, tb := range map[string]interface{ String() string }{
		"Table2": Table2(m), "Fig5": Fig5(m), "Fig6": Fig6(m),
		"Fig7": Fig7(m), "Fig8": Fig8(m), "Fig9": Fig9(m),
	} {
		out := tb.String()
		if !strings.Contains(out, "ERR") {
			t.Errorf("%s does not mark the failed cell:\n%s", name, out)
		}
		for _, w := range workload.All() {
			if !strings.Contains(out, w.Name) {
				t.Errorf("%s lost row %s:\n%s", name, w.Name, out)
			}
		}
	}

	// Speedup tables depend on the base cell: the victim's whole Fig5
	// row must be ERR, while other rows keep their numbers.
	fig5 := Fig5(m)
	for _, row := range fig5.Rows {
		if row[0] != victim {
			continue
		}
		for _, cell := range row[1:] {
			if cell != "ERR" {
				t.Errorf("Fig5 %s cell = %q, want ERR (base failed)", victim, cell)
			}
		}
	}
}

// TestSessionCheckpointResume interrupts nothing but splits the suite
// across two sessions sharing a journal: the second session must serve
// every cell from the checkpoint and render byte-identical tables.
func TestSessionCheckpointResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	cfg := tinyConfig()
	cfg.Workers = 4

	render := func(cp *runner.Checkpoint) (string, *Session) {
		s := NewSession(context.Background(), cfg, runner.Options{Retries: 1, Checkpoint: cp})
		m := s.Matrix()
		var b strings.Builder
		b.WriteString(Table2(m).String())
		b.WriteString(Fig5(m).String())
		b.WriteString(Fig9(m).String())
		b.WriteString(s.Fig4().String())
		return b.String(), s
	}

	cp, err := runner.OpenCheckpoint(path, false)
	if err != nil {
		t.Fatal(err)
	}
	first, s1 := render(cp)
	cp.Close()
	if len(s1.Failures()) != 0 {
		t.Fatalf("first session failed: %s", s1.FailureReport())
	}
	if s1.Cached() != 0 || s1.Ran() == 0 {
		t.Fatalf("first session cached=%d ran=%d, want 0/>0", s1.Cached(), s1.Ran())
	}

	cp2, err := runner.OpenCheckpoint(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer cp2.Close()
	second, s2 := render(cp2)
	if s2.Ran() != 0 {
		t.Errorf("resumed session re-simulated %d cell(s), want 0", s2.Ran())
	}
	if s2.Cached() == 0 {
		t.Error("resumed session served nothing from the checkpoint")
	}
	if first != second {
		t.Error("resumed tables differ byte-for-byte from the original run")
	}
}

// TestResumeRecordsNoTraces: a session resumed over a complete journal
// simulates nothing, so it must record no trace either. The journal is
// written with tracing off (the fingerprint ignores the trace mode) and
// a seed no other test uses, so the resumed, traced session is the
// first in the process that could record these streams.
func TestResumeRecordsNoTraces(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	cfg := tinyConfig()
	cfg.Seed = 31
	cfg.TraceMode = sim.TraceOff

	cp, err := runner.OpenCheckpoint(path, false)
	if err != nil {
		t.Fatal(err)
	}
	s1 := NewSession(context.Background(), cfg, runner.Options{Checkpoint: cp})
	s1.Matrix()
	cp.Close()
	if len(s1.Failures()) != 0 || s1.Ran() == 0 {
		t.Fatalf("journaling session ran %d cell(s): %s", s1.Ran(), s1.FailureReport())
	}

	cp2, err := runner.OpenCheckpoint(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer cp2.Close()
	cfg.TraceMode = sim.TraceMemory
	before := trace.Shared().Stats()
	s2 := NewSession(context.Background(), cfg, runner.Options{Checkpoint: cp2})
	s2.Matrix()
	after := trace.Shared().Stats()
	if s2.Ran() != 0 {
		t.Fatalf("resumed session simulated %d cell(s), want 0", s2.Ran())
	}
	if d := after.Misses - before.Misses; d != 0 {
		t.Errorf("resumed session recorded %d trace(s), want 0: every cell came from the journal", d)
	}
}

// TestSessionCanceledRendersPartial: a canceled session still returns
// tables, with every cell marked ERR and the cancellation recorded.
// The session gets an empty table: cells completed by earlier tests
// would otherwise be reused, and a reused cell needs no context.
func TestSessionCanceledRendersPartial(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := NewSession(ctx, tinyConfig(), runner.Options{Retries: 1, Checkpoint: runner.NewCheckpoint()})
	m := s.Matrix()
	out := Table2(m).String()
	if !strings.Contains(out, "ERR") {
		t.Errorf("canceled matrix table has no ERR cells:\n%s", out)
	}
	if len(s.Failures()) == 0 {
		t.Fatal("canceled session recorded no failures")
	}
	if report := s.FailureReport(); !strings.Contains(report, "context canceled") {
		t.Errorf("failure report does not mention cancellation:\n%s", report)
	}
}

// TestSessionSimulatesDistinctCellsOnce renders every artifact through
// one session, as psbtables -all does, and checks that only the
// distinct cells are simulated. Figure 10's 32K 4-way column and
// Figure 11's perfect-disambiguation columns are the Figure 5-9
// matrix's cells again, so of the 120 cells submitted only 90 are
// distinct. Through Artifact, which rebuilds the matrix for each of
// table2 and fig5-fig9, the same 90 cells serve every request.
func TestSessionSimulatesDistinctCellsOnce(t *testing.T) {
	cfg := tinyConfig()
	cfg.MaxInsts = 4_000

	s := freshSession(cfg)
	var submitted []runner.Job
	record := func(jobs []runner.Job) []runner.CellResult {
		submitted = append(submitted, jobs...)
		return s.run(jobs)
	}
	runMatrixWith(cfg, record)
	fig4With(cfg, record)
	fig10With(cfg, record)
	fig11With(cfg, record)
	distinct := map[string]bool{}
	for _, j := range submitted {
		distinct[j.Fingerprint()] = true
	}
	if len(submitted) != 120 || len(distinct) != 90 {
		t.Fatalf("psbtables -all submits %d cells, %d distinct; want 120 and 90", len(submitted), len(distinct))
	}
	if len(s.Failures()) != 0 || s.Ran() != 90 || s.Cached() != 30 {
		t.Errorf("session ran %d, reused %d, failed %d; want 90, 30, 0", s.Ran(), s.Cached(), len(s.Failures()))
	}

	s = freshSession(cfg)
	submitted = nil
	for _, name := range ArtifactNames() {
		if _, err := Artifact(name, cfg, record); err != nil {
			t.Fatal(err)
		}
	}
	if len(s.Failures()) != 0 || s.Ran() != 90 || s.Cached() != len(submitted)-90 {
		t.Errorf("every artifact: %d submitted, session ran %d and reused %d; want 90 and %d",
			len(submitted), s.Ran(), s.Cached(), len(submitted)-90)
	}
}
