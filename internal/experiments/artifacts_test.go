package experiments

import (
	"context"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/runner"
	"repro/internal/sample"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// TestArtifactsGolden20K renders Table 2 and Figures 4-11 through a
// Session at a 20K-instruction budget, exactly as psbtables -all
// -insts 20000 prints them, and diffs the text against the committed
// golden. Any change to the simulator, the executor or the renderers
// that moves a single byte of the reproduction fails here.
func TestArtifactsGolden20K(t *testing.T) {
	cfg := sim.Default()
	cfg.MaxInsts = 20_000
	cfg.Workers = 2
	checkArtifactsGolden(t, cfg, "testdata/artifacts_20k.txt")
}

// TestSampledArtifactsGolden is the sampled sibling: the same artifact
// set with sampling on at 100K instructions, as psbtables -all -sample
// -insts 100000 prints it. It pins fast-forward, the checkpoint store
// and the estimator along with the detailed core.
func TestSampledArtifactsGolden(t *testing.T) {
	cfg := sim.Default()
	cfg.MaxInsts = 100_000
	cfg.Workers = 2
	cfg.TraceMode = sim.TraceMemory
	cfg.SampleMode = sim.SampleOn
	checkArtifactsGolden(t, cfg, "testdata/artifacts_sampled_100k.txt")
}

// checkArtifactsGolden renders every artifact under cfg through a
// Session and diffs the text against the golden file.
func checkArtifactsGolden(t *testing.T, cfg sim.Config, golden string) {
	t.Helper()
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession(context.Background(), cfg, runner.DefaultOptions())
	m := s.Matrix()
	var b strings.Builder
	for _, tb := range []*stats.Table{
		Table2(m), s.Fig4(), Fig5(m), Fig6(m), Fig7(m), Fig8(m), Fig9(m), s.Fig10(), s.Fig11(),
	} {
		b.WriteString(tb.String())
		b.WriteByte('\n')
	}
	if len(s.Failures()) != 0 {
		t.Fatalf("cells failed:\n%s", s.FailureReport())
	}
	if got := b.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("artifacts differ from %s at line %d:\n got: %s\nwant: %s", golden, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("artifacts differ from %s in length: %d lines, want %d", golden, len(gl), len(wl))
	}
}

// TestSampledTablesUseEstimate builds a synthetic sampled matrix whose
// detailed-window stats disagree with the sampling estimate, and checks
// Table 2 and Figure 5 print the estimate and the full budget rather
// than the detailed-window aggregates.
func TestSampledTablesUseEstimate(t *testing.T) {
	cfg := sim.Default()
	cfg.SampleMode = sim.SampleOn
	m := &Matrix{Cfg: cfg, Results: map[string]map[core.Variant]sim.Result{}}
	// Detailed windows: 90K insts at IPC 0.30. Estimates: base 0.664,
	// every prefetching scheme 0.830 (+25.0%).
	detailed := cpu.Stats{Committed: 90_000, Cycles: 300_000}
	for _, w := range workload.All() {
		row := map[core.Variant]sim.Result{}
		for _, v := range Schemes() {
			est := 0.830
			if v == core.None {
				est = 0.664
			}
			row[v] = sim.Result{Workload: w.Name, Variant: v, CPU: detailed,
				Sampled: &sample.Estimate{IPC: est}}
		}
		m.Results[w.Name] = row
	}

	t2 := Table2(m)
	for _, row := range t2.Rows {
		if row[1] != "0.50" || row[5] != "0.66" {
			t.Errorf("Table 2 %s: #inst %s IPC %s, want the 0.50M budget and the 0.66 estimate", row[0], row[1], row[5])
		}
	}
	f5 := Fig5(m)
	for _, row := range f5.Rows {
		for _, cell := range row[1:] {
			if cell != "+25.0%" {
				t.Errorf("Figure 5 %s: %s, want +25.0%% from the estimates", row[0], cell)
			}
		}
	}
}
