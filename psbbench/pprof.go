package main

import (
	"bytes"
	"errors"
	"fmt"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// flatByPackage reads a CPU profile file with `go tool pprof -top` and
// returns each package's flat CPU nanoseconds: a sample is charged to
// the function of its leaf frame, an inlined function counting as its
// own.
func flatByPackage(path string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=0", "-nodefraction=0", "-unit=ns", path)
	// pprof keeps fetched profiles under PPROF_TMPDIR; keep it beside
	// the profile even though a local file is never fetched.
	cmd.Env = append(cleanEnv(), "PPROF_TMPDIR="+filepath.Dir(path))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof %s: %v: %s", path, err, bytes.TrimSpace(stderr.Bytes()))
	}
	// Rows read "flat flat% sum% cum cum% name", flat in ns ("0" when
	// none); a name may hold spaces and ends in " (inline)" when the
	// function was inlined.
	byPkg := map[string]float64{}
	for _, l := range strings.Split(string(out), "\n") {
		f := strings.Fields(l)
		if len(f) < 6 || !strings.HasSuffix(f[1], "%") {
			continue
		}
		ns, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "ns"), 64)
		if err != nil {
			continue // the column header
		}
		name := strings.TrimSuffix(strings.Join(f[5:], " "), " (inline)")
		byPkg[packageOf(name)] += ns
	}
	var total float64
	for _, v := range byPkg {
		total += v
	}
	if total == 0 {
		return nil, errors.New("pprof: profile has no samples: " + path)
	}
	return byPkg, nil
}

// packageOf returns the import path of a symbol name such as
// "repro/internal/cpu.(*CPU).dispatch" or "runtime.mallocgc". Slashes
// inside type arguments or receivers do not count.
func packageOf(fn string) string {
	prefix := fn
	if i := strings.IndexAny(prefix, "[("); i >= 0 {
		prefix = prefix[:i]
	}
	slash := strings.LastIndex(prefix, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// shareOf returns the share of the profile total spent in the packages
// matched by any of the given import paths; a path ending in "/"
// matches every package below it.
func shareOf(byPkg map[string]float64, paths ...string) float64 {
	var s, total float64
	for pkg, v := range byPkg {
		total += v
		for _, p := range paths {
			if pkg == p || strings.HasSuffix(p, "/") && strings.HasPrefix(pkg, p) {
				s += v
				break
			}
		}
	}
	if total == 0 {
		return 0
	}
	return s / total
}
