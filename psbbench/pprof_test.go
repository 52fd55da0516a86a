package main

import (
	"os"
	"path/filepath"
	"runtime/pprof"
	"testing"
	"time"
)

func TestPackageOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/cpu.(*CPU).dispatch":                        "repro/internal/cpu",
		"repro/internal/serve.(*Server).handleSim.func1":            "repro/internal/serve",
		"runtime.mallocgc":                                          "runtime",
		"net/http.(*conn).serve":                                    "net/http",
		"encoding/json.(*encodeState).marshal":                      "encoding/json",
		"sync/atomic.(*Pointer[net/http.http2clientConnPool]).Load": "sync/atomic",
		"main.busy": "main",
	} {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

var sink uint64

// busy spins on a register-held value, so even race-instrumented
// builds spend the time in this function rather than in the detector.
func busy(d time.Duration) {
	x := uint64(1)
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1e5; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	sink = x
}

// A real CPU profile of a busy loop must be read, and charge most of its
// time to the loop's package.
func TestFlatByPackageOfRealProfile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	busy(300 * time.Millisecond)
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	byPkg, err := flatByPackage(path)
	if err != nil {
		t.Fatal(err)
	}
	if share := shareOf(byPkg, "repro/psbbench"); share < 0.5 {
		t.Errorf("busy loop share = %.2f of %v, want most of the profile", share, byPkg)
	}
	if _, err := flatByPackage(filepath.Join(t.TempDir(), "missing.pprof")); err == nil {
		t.Error("a missing profile must be an error")
	}
}
