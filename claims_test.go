package repro

import (
	"math"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// The tests in this file read the committed 500K-instruction artifacts
// (artifacts_full.txt, ablations_full.txt) and check that they agree
// with each other and with the claims EXPERIMENTS.md makes about them.
// CI regenerates both files and diffs them byte for byte, so these
// checks pin what the reproduction's numbers say, not just that they
// are stable.

// goldenTable is one parsed artifact: its column headers and its rows
// keyed by the first column.
type goldenTable struct {
	headers []string
	rows    map[string][]string
}

// cell returns the named column of the named row.
func (g goldenTable) cell(t *testing.T, row, col string) string {
	t.Helper()
	r, ok := g.rows[row]
	if !ok {
		t.Fatalf("no row %q", row)
	}
	for i, h := range g.headers {
		if h == col {
			return r[i]
		}
	}
	t.Fatalf("no column %q in %q", col, g.headers)
	return ""
}

// num parses a cell such as "+29.5%", "-0.7%" or "0.86".
func (g goldenTable) num(t *testing.T, row, col string) float64 {
	t.Helper()
	s := g.cell(t, row, col)
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil {
		t.Fatalf("%s/%s: %v", row, col, err)
	}
	return v
}

var columnGap = regexp.MustCompile(`\s{2,}`)

// readGolden parses a psbtables text report into its tables, keyed by
// the title up to the colon ("Figure 5", "Ablation: Markov entry
// encoding ..." keeps its full title). Columns are separated by at
// least two spaces; headers and row labels hold single spaces only.
func readGolden(t *testing.T, path string) map[string]goldenTable {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]goldenTable{}
	for _, block := range strings.Split(strings.TrimSpace(string(b)), "\n\n") {
		lines := strings.Split(block, "\n")
		if len(lines) < 4 || !strings.HasPrefix(lines[2], "---") {
			t.Fatalf("%s: malformed table:\n%s", path, block)
		}
		key := lines[0]
		if !strings.HasPrefix(key, "Ablation:") {
			key, _, _ = strings.Cut(key, ":")
		}
		g := goldenTable{headers: columnGap.Split(strings.TrimSpace(lines[1]), -1), rows: map[string][]string{}}
		for _, l := range lines[3:] {
			if strings.HasPrefix(l, "note:") {
				continue
			}
			cells := columnGap.Split(strings.TrimSpace(l), -1)
			if len(cells) != len(g.headers) {
				t.Fatalf("%s: %q: %d cells under %d headers", path, lines[0], len(cells), len(g.headers))
			}
			g.rows[cells[0]] = cells
		}
		out[key] = g
	}
	return out
}

var goldenPrograms = []string{"health", "burg", "deltablue", "gs", "sis", "turb3d"}

// TestGoldenCrossFigureConsistency: Figure 10's 32K 4-way L1D is the
// paper's baseline cache and Figure 11's perfect-disambiguation machine
// is its baseline core, so those columns are the Figure 5-9 matrix's
// cells and must say what Table 2 and Figure 5 say.
func TestGoldenCrossFigureConsistency(t *testing.T) {
	a := readGolden(t, "artifacts_full.txt")
	t2, f5, f10, f11 := a["Table 2"], a["Figure 5"], a["Figure 10"], a["Figure 11"]
	for _, p := range goldenPrograms {
		for f10col, f5col := range map[string]string{
			"32K 4-way PCstride": "PC-stride",
			"32K 4-way ConfPri":  "ConfAlloc-Priority",
		} {
			if got, want := f10.cell(t, p, f10col), f5.cell(t, p, f5col); got != want {
				t.Errorf("%s: Figure 10 %s = %s, Figure 5 %s = %s", p, f10col, got, f5col, want)
			}
		}
		if got, want := f11.cell(t, p, "Base-Dis"), t2.cell(t, p, "IPC"); got != want {
			t.Errorf("%s: Figure 11 Base-Dis = %s, Table 2 IPC = %s", p, got, want)
		}
		// The matrix's ConfAlloc-Priority IPC is printed only as a
		// speedup over base: every value the rounded base IPC and
		// speedup allow must overlap what ConfPri-Dis rounds from.
		base, sp := t2.num(t, p, "IPC"), f5.num(t, p, "ConfAlloc-Priority")
		lo := (base - 0.005) * (1 + (sp-0.05)/100)
		hi := (base + 0.005) * (1 + (sp+0.05)/100)
		if dis := f11.num(t, p, "ConfPri-Dis"); dis+0.005 < lo || dis-0.005 > hi {
			t.Errorf("%s: Figure 11 ConfPri-Dis = %.2f, but Table 2 IPC %.2f at Figure 5's %+.1f%% puts it in [%.3f, %.3f]",
				p, dis, base, sp, lo, hi)
		}
	}
}

// fig10MaxSpread bounds, in percentage points, how far one program's
// Figure 10 ConfPri speedup may move across the three L1D geometries.
// health moves most: +25.3% at 16K 4-way to +32.4% at 32K 2-way.
const fig10MaxSpread = 7.5

// TestGoldenClaims checks the reproduction summary of EXPERIMENTS.md
// against the committed numbers.
func TestGoldenClaims(t *testing.T) {
	a := readGolden(t, "artifacts_full.txt")
	f5, f6 := a["Figure 5"], a["Figure 6"]

	// PC-stride buffers are near-useless on pointer chasing.
	for _, p := range []string{"health", "burg", "deltablue"} {
		if v := f5.num(t, p, "PC-stride"); v > 0.7 {
			t.Errorf("%s: PC-stride speedup %+.1f%%, claimed <= +0.7%%", p, v)
		}
	}

	// PSB ≫ PC-stride on the pointer programs: ConfAlloc-Priority wins
	// by at least 10 points (burg is the closest, +12.5% vs +0.0%).
	for _, p := range []string{"health", "burg", "deltablue"} {
		if psb, pcs := f5.num(t, p, "ConfAlloc-Priority"), f5.num(t, p, "PC-stride"); psb-pcs < 10 {
			t.Errorf("%s: ConfAlloc-Priority %+.1f%% beats PC-stride %+.1f%% by %.1f points, claimed >= 10",
				p, psb, pcs, psb-pcs)
		}
	}

	// Figure 10: the ConfPri speedup is largely independent of the L1D
	// geometry. Each program's speedups across the three geometries lie
	// within fig10MaxSpread points of each other.
	f10 := a["Figure 10"]
	for _, p := range goldenPrograms {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, g := range []string{"16K 4-way", "32K 2-way", "32K 4-way"} {
			v := f10.num(t, p, g+" ConfPri")
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
		if hi-lo > fig10MaxSpread+1e-9 {
			t.Errorf("%s: Figure 10 ConfPri spread %.1f points (%.1f..%.1f), claimed <= %.1f",
				p, hi-lo, lo, hi, fig10MaxSpread)
		}
	}

	// Stride code: every scheme within 0.2 points on turb3d.
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, s := range f5.headers[1:] {
		v := f5.num(t, "turb3d", s)
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	if hi-lo > 0.2+1e-9 {
		t.Errorf("turb3d: Figure 5 spread %.1f points (%.1f..%.1f), claimed <= 0.2", hi-lo, lo, hi)
	}

	// sis: stream thrashing without confidence, cured by confidence
	// allocation — accuracy ≈12% -> ≈97%, and ConfAlloc beats 2Miss.
	for _, s := range []string{"PC-stride", "2Miss-RR", "2Miss-Priority"} {
		if acc := f6.num(t, "sis", s); acc < 9 || acc > 15 {
			t.Errorf("sis: %s accuracy %.1f%%, claimed ≈12%% without confidence", s, acc)
		}
	}
	for _, miss := range []string{"2Miss-RR", "2Miss-Priority"} {
		for _, conf := range []string{"ConfAlloc-RR", "ConfAlloc-Priority"} {
			if c, m := f5.num(t, "sis", conf), f5.num(t, "sis", miss); c <= m {
				t.Errorf("sis: %s speedup %+.1f%% does not beat %s %+.1f%%", conf, c, miss, m)
			}
		}
	}
	for _, conf := range []string{"ConfAlloc-RR", "ConfAlloc-Priority"} {
		if acc := f6.num(t, "sis", conf); acc < 95 || acc > 99 {
			t.Errorf("sis: %s accuracy %.1f%%, claimed ≈97%%", conf, acc)
		}
	}

	// 16-bit differential Markov entries match absolute addressing.
	ab := readGolden(t, "ablations_full.txt")
	enc := ab["Ablation: Markov entry encoding (ConfAlloc-Priority PSB)"]
	if enc.rows == nil {
		t.Fatal("ablations_full.txt has no Markov entry encoding table")
	}
	for _, col := range []string{"health speedup", "deltablue speedup"} {
		if d, abs := enc.cell(t, "16-bit delta", col), enc.cell(t, "absolute", col); d != abs {
			t.Errorf("Markov encoding: 16-bit delta %s = %s, absolute = %s", col, d, abs)
		}
	}
}
