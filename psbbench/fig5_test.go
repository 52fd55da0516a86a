package main

import (
	"math"
	"strings"
	"testing"
)

// exactReport and sampledReport are excerpts of psbtables -all and
// psbtables -all -sample output at seed 1 and 500K instructions.
const exactReport = `Table 2: baseline characteristics (no prefetching)
program    #inst (Mill)  %L1 MR   %lds   %sts   IPC  L1-L2 %bus  L2-M %bus
--------------------------------------------------------------------------
health             0.50   58.5%  16.7%   8.2%  0.66       12.6%       5.0%

Figure 5: % speedup over base
program    PC-stride  2Miss-RR  2Miss-Priority  ConfAlloc-RR  ConfAlloc-Priority
--------------------------------------------------------------------------------
health         +0.4%    +41.8%          +41.0%        +30.3%              +29.5%
burg           +0.0%    +14.9%          +14.6%        +12.6%              +12.5%
deltablue      +0.5%   +114.5%         +114.5%       +114.3%             +114.3%
gs             +6.6%     +7.7%           +7.9%         +4.4%               +4.8%
sis            +3.6%     +3.6%           +3.6%         +9.6%               +9.4%
turb3d        +39.6%    +39.7%          +39.6%        +39.5%              +39.5%
note: paper: PSB ~30% avg over base on pointer apps, ~10% over PC-stride; sis degrades without confidence

Figure 6: prefetch accuracy (used/issued)
`

const sampledReport = `Figure 5: % speedup over base
program    PC-stride  2Miss-RR  2Miss-Priority  ConfAlloc-RR  ConfAlloc-Priority
--------------------------------------------------------------------------------
health         +0.2%    +14.2%          +14.0%        +10.9%              +10.9%
burg           +0.0%     +5.2%           +5.2%         +4.4%               +4.4%
deltablue      +2.1%    +66.0%          +66.0%        +66.0%              +66.0%
gs            +11.8%    +12.1%          +12.2%        +10.8%              +11.1%
sis            +3.2%     +3.2%           +3.1%         +9.7%               +9.9%
turb3d        +36.2%    +36.4%          +36.3%        +36.4%              +36.3%
`

func TestParseFig5(t *testing.T) {
	f, err := parseFig5(exactReport)
	if err != nil {
		t.Fatal(err)
	}
	if len(f) != 6 {
		t.Fatalf("parsed %d programs, want 6 (the note and later tables are not rows)", len(f))
	}
	for _, c := range []struct {
		prog, scheme string
		want         float64
	}{
		{"deltablue", "2Miss-Priority", 114.5},
		{"health", "PC-stride", 0.4},
		{"turb3d", "ConfAlloc-Priority", 39.5},
		{"burg", "PC-stride", 0},
	} {
		if got, ok := f[c.prog][c.scheme]; !ok || got != c.want {
			t.Errorf("%s %s = %v (present %v), want %v", c.prog, c.scheme, got, ok, c.want)
		}
	}
}

func TestParseFig5ErrAndNegativeCells(t *testing.T) {
	report := `Figure 5: % speedup over base
program    PC-stride  2Miss-RR
-----------------------------
health         -1.5%       ERR
`
	f, err := parseFig5(report)
	if err != nil {
		t.Fatal(err)
	}
	if f["health"]["PC-stride"] != -1.5 {
		t.Errorf("PC-stride = %v, want -1.5", f["health"]["PC-stride"])
	}
	if _, ok := f["health"]["2Miss-RR"]; ok {
		t.Error("an ERR cell must be absent, not zero")
	}
}

func TestParseFig5Rejects(t *testing.T) {
	for name, report := range map[string]string{
		"no block":     "Figure 6: prefetch accuracy (used/issued)\nprogram  PC-stride\n---\n",
		"no rule":      "Figure 5: % speedup over base\nprogram  PC-stride\nhealth  +1.0%\n",
		"short row":    "Figure 5: % speedup over base\nprogram  A  B\n---\nhealth  +1.0%\n",
		"not percent":  "Figure 5: % speedup over base\nprogram  A\n---\nhealth  1.0\n",
		"empty":        "Figure 5: % speedup over base\nprogram  A\n---\n\n",
		"title only":   "Figure 5: % speedup over base\n",
		"wrong header": "Figure 5: % speedup over base\nbench  A\n---\nhealth  +1.0%\n",
	} {
		if _, err := parseFig5(report); err == nil {
			t.Errorf("%s: parsed without error", name)
		}
	}
}

// The sampled tables print detailed-window aggregates; the worst Figure
// 5 cell at seed 1 is deltablue under the 2Miss schemes, 48.5 points
// below the exact speedup.
func TestFig5GapOfSampledTable(t *testing.T) {
	got, err := parseFig5(sampledReport)
	if err != nil {
		t.Fatal(err)
	}
	want, err := parseFig5(exactReport)
	if err != nil {
		t.Fatal(err)
	}
	gap, where, err := fig5Gap(got, want)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(gap-48.5) > 1e-9 || !strings.HasPrefix(where, "deltablue 2Miss-") {
		t.Errorf("gap = %v at %q, want 48.5 at deltablue 2Miss-*", gap, where)
	}
	if gap, _, _ := fig5Gap(want, want); gap != 0 {
		t.Errorf("a table against itself has gap %v", gap)
	}
	delete(got["gs"], "PC-stride")
	if _, _, err := fig5Gap(got, want); err == nil {
		t.Error("a cell missing from the printed table must be an error")
	}
}

func TestSection(t *testing.T) {
	s := section(exactReport, fig5Title)
	if !strings.HasPrefix(s, fig5Title) || !strings.HasSuffix(s, "sis degrades without confidence") {
		t.Errorf("section = %q", s)
	}
	if section(exactReport, "Figure 12: nothing") != "" {
		t.Error("a missing section must be empty")
	}
}
