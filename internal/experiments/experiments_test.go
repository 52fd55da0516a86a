package experiments

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
)

// tinyConfig keeps these structural tests fast; the numerical shapes
// are asserted at full budget by internal/sim's tests and the bench
// harness.
func tinyConfig() sim.Config {
	cfg := sim.Default()
	cfg.MaxInsts = 15_000
	return cfg
}

func TestSchemesOrder(t *testing.T) {
	s := Schemes()
	if s[0] != core.None {
		t.Errorf("first scheme = %v, want base", s[0])
	}
	if len(s) != 6 {
		t.Errorf("schemes = %d, want 6", len(s))
	}
}

func TestMatrixComplete(t *testing.T) {
	m := RunMatrix(tinyConfig())
	if len(m.Results) != 6 {
		t.Fatalf("matrix has %d benchmarks, want 6", len(m.Results))
	}
	for name, per := range m.Results {
		if len(per) != len(Schemes()) {
			t.Errorf("%s has %d schemes, want %d", name, len(per), len(Schemes()))
		}
		base := m.Base(name)
		if base.CPU.Committed == 0 {
			t.Errorf("%s base committed nothing", name)
		}
	}
}

func TestMatrixDerivedTables(t *testing.T) {
	m := RunMatrix(tinyConfig())
	for _, tb := range []interface{ String() string }{
		Table2(m), Fig5(m), Fig6(m), Fig7(m), Fig8(m), Fig9(m),
	} {
		out := tb.String()
		if len(out) == 0 {
			t.Error("empty table")
		}
		for _, name := range []string{"health", "burg", "deltablue", "gs", "sis", "turb3d"} {
			if !strings.Contains(out, name) {
				t.Errorf("table missing %s:\n%s", name, out)
			}
		}
	}
}

func TestFig4Structure(t *testing.T) {
	tb := Fig4(tinyConfig())
	if len(tb.Rows) != 6 {
		t.Fatalf("Fig4 rows = %d, want 6", len(tb.Rows))
	}
	if len(tb.Headers) != len(Fig4Widths)+1 {
		t.Errorf("Fig4 headers = %d, want %d", len(tb.Headers), len(Fig4Widths)+1)
	}
}

func TestFig10Structure(t *testing.T) {
	tb := Fig10(tinyConfig())
	if len(tb.Rows) != 6 {
		t.Fatalf("Fig10 rows = %d, want 6", len(tb.Rows))
	}
	// program + 3 configs x 2 schemes.
	if len(tb.Headers) != 7 {
		t.Errorf("Fig10 headers = %d, want 7", len(tb.Headers))
	}
}

func TestFig11Structure(t *testing.T) {
	tb := Fig11(tinyConfig())
	if len(tb.Rows) != 6 || len(tb.Headers) != 5 {
		t.Errorf("Fig11 shape = %dx%d, want 6x5", len(tb.Rows), len(tb.Headers))
	}
}

// freshSession returns a session with its own empty result table, so
// every cell it builds is simulated rather than reused from earlier
// tests in the process.
func freshSession(cfg sim.Config) *Session {
	return NewSession(context.Background(), cfg, runner.Options{Retries: 1, Checkpoint: runner.NewCheckpoint()})
}

// TestRunMatrixParallelDeterminism guards the parallel runner's core
// guarantee: a matrix assembled by concurrent workers is value-equal to
// the serial one. Any shared mutable state leaking between concurrent
// sim.Run calls (predictor tables, workload registries, statistics)
// shows up here as a diff — and as a data race under go test -race.
// Workers is not part of a cell's fingerprint, so each matrix gets a
// fresh table; sharing one would compare the serial cells with
// themselves.
func TestRunMatrixParallelDeterminism(t *testing.T) {
	cfg := sim.Default()
	cfg.MaxInsts = 60_000
	if testing.Short() {
		cfg.MaxInsts = 15_000
	}
	serial := cfg
	serial.Workers = 0
	parallel := cfg
	parallel.Workers = -1 // one worker per core

	ms := freshSession(serial).Matrix()
	mp := freshSession(parallel).Matrix()
	if len(ms.Results) != len(mp.Results) {
		t.Fatalf("benchmark count differs: serial %d, parallel %d", len(ms.Results), len(mp.Results))
	}
	for name, per := range ms.Results {
		for v, rs := range per {
			rp, ok := mp.Results[name][v]
			if !ok {
				t.Fatalf("parallel matrix missing %s/%s", name, v)
			}
			if !reflect.DeepEqual(rs, rp) {
				t.Errorf("%s/%s: parallel result differs from serial\nserial:   %+v\nparallel: %+v",
					name, v, rs, rp)
			}
		}
	}
}

func TestAblationsRun(t *testing.T) {
	cfg := tinyConfig()
	for name, run := range map[string]func(sim.Config) *stats.Table{
		"delta":     AblationMarkovDelta,
		"alloc":     AblationAllocation,
		"scheduler": AblationScheduler,
		"geometry":  AblationGeometry,
		"size":      AblationMarkovSize,
		"overlap":   AblationOverlap,
	} {
		tb := run(cfg)
		if tb == nil || len(tb.Rows) == 0 {
			t.Errorf("ablation %s produced no rows", name)
		}
	}
}
