package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// fig5Title is the first line of the Figure 5 block psbtables prints.
const fig5Title = "Figure 5: % speedup over base"

// fig5 maps program -> scheme -> printed speedup in percent. Cells
// printed as ERR are absent.
type fig5 map[string]map[string]float64

// parseFig5 extracts the Figure 5 block from a psbtables text report:
// the title line, a header of scheme names, a dashed rule, then one row
// per program until a blank or "note:" line. Scheme names contain no
// spaces, so the header and rows split on whitespace.
func parseFig5(report string) (fig5, error) {
	lines := strings.Split(report, "\n")
	start := -1
	for i, l := range lines {
		if strings.TrimSpace(l) == fig5Title {
			start = i
			break
		}
	}
	if start < 0 || start+2 >= len(lines) {
		return nil, fmt.Errorf("fig5: no %q block", fig5Title)
	}
	header := strings.Fields(lines[start+1])
	if len(header) < 2 || header[0] != "program" || !strings.HasPrefix(lines[start+2], "---") {
		return nil, fmt.Errorf("fig5: malformed header %q", lines[start+1])
	}
	schemes := header[1:]
	out := fig5{}
	for _, l := range lines[start+3:] {
		if strings.TrimSpace(l) == "" || strings.HasPrefix(l, "note:") {
			break
		}
		f := strings.Fields(l)
		if len(f) != len(header) {
			return nil, fmt.Errorf("fig5: row %q has %d fields, want %d", l, len(f), len(header))
		}
		row := map[string]float64{}
		for i, cell := range f[1:] {
			if cell == "ERR" {
				continue
			}
			v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "%"), 64)
			if err != nil || !strings.HasSuffix(cell, "%") {
				return nil, fmt.Errorf("fig5: cell %q of row %q is not a percentage", cell, f[0])
			}
			row[schemes[i]] = v
		}
		out[f[0]] = row
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("fig5: block has no rows")
	}
	return out, nil
}

// fig5Gap returns the largest absolute difference, in percentage
// points, between a cell of got and the same cell of want, and names
// that cell. Every cell of want must be present in got.
func fig5Gap(got, want fig5) (gap float64, where string, err error) {
	gap = -1
	for _, prog := range sortedKeys(want) {
		row := want[prog]
		for _, scheme := range sortedKeys(row) {
			w := row[scheme]
			g, ok := got[prog][scheme]
			if !ok {
				return 0, "", fmt.Errorf("fig5: %s %s missing", prog, scheme)
			}
			if d := math.Abs(g - w); d > gap {
				gap, where = d, fmt.Sprintf("%s %s: %+.1f%% printed, %+.1f%% exact", prog, scheme, g, w)
			}
		}
	}
	if gap < 0 {
		return 0, "", fmt.Errorf("fig5: reference has no cells")
	}
	return gap, where, nil
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// section returns the block of report that starts at the line equal to
// title and runs to the next blank line, or "" when it is absent.
func section(report, title string) string {
	lines := strings.Split(report, "\n")
	for i, l := range lines {
		if l != title {
			continue
		}
		j := i
		for j < len(lines) && strings.TrimSpace(lines[j]) != "" {
			j++
		}
		return strings.Join(lines[i:j], "\n")
	}
	return ""
}
