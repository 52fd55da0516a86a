package mem

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// restoreGeometries are the hierarchies sampled runs restore: the
// paper's baseline and Figure 10's two other L1D geometries.
func restoreGeometries() map[string]Config {
	base := DefaultConfig()
	small := base
	small.L1D.SizeBytes = 16 << 10
	twoWay := base
	twoWay.L1D.Ways = 2
	return map[string]Config{"32K 4-way": base, "16K 4-way": small, "32K 2-way": twoWay}
}

// drive runs a random mix of demand, instruction, prefetch and
// promotion traffic through h, so that afterwards its tag arrays, TLB,
// MSHRs, buses, L2 pipeline and counters all hold non-zero state. Half
// the addresses fall in a 64 KB hot region (hits), the rest in 4 MB
// (misses in every cache level, TLB replacement).
func drive(h *Hierarchy, seed int64, n int) {
	rng := rand.New(rand.NewSource(seed))
	cycle := uint64(1)
	for i := 0; i < n; i++ {
		cycle += uint64(rng.Intn(4))
		addr := uint64(rng.Intn(4 << 20))
		if rng.Intn(2) == 0 {
			addr &= 64<<10 - 1
		}
		switch rng.Intn(6) {
		case 0, 1:
			h.DTLB.Translate(addr)
			h.AccessD(cycle, addr)
		case 2:
			h.AccessI(cycle, addr)
		case 3:
			h.Prefetch(cycle, addr)
		case 4:
			h.PrefetchInPage(cycle, addr)
		case 5:
			h.PromoteToMSHR(cycle, addr, cycle+50)
		}
	}
}

// seeded is the reference Restore must reproduce: a hierarchy fresh
// from New with the snapshot's tag arrays, LRU clocks and TLB written
// in field by field.
func seeded(cfg Config, ws WarmState) *Hierarchy {
	h := New(cfg)
	for _, c := range []struct {
		cache *Cache
		st    CacheState
	}{{h.L1D, ws.L1D}, {h.L1I, ws.L1I}, {h.L2, ws.L2}} {
		for i, l := range c.st.Lines {
			c.cache.lines[i] = cacheLine{tag: l.Tag, lastUse: l.LastUse}
		}
		c.cache.clock = c.st.Clock
	}
	copy(h.DTLB.pages, ws.DTLB.Pages)
	copy(h.DTLB.lastUse, ws.DTLB.LastUse)
	h.DTLB.used, h.DTLB.mru, h.DTLB.clock = ws.DTLB.Used, ws.DTLB.MRU, ws.DTLB.Clock
	return h
}

// TestRestoreMatchesFreshHierarchy: restoring a used hierarchy in place
// leaves it deeply equal to a fresh one seeded with the snapshot — no
// MSHR, bus, pipeline or counter state survives — and a fresh
// hierarchy restored the same way agrees.
func TestRestoreMatchesFreshHierarchy(t *testing.T) {
	for name, cfg := range restoreGeometries() {
		t.Run(name, func(t *testing.T) {
			src := New(cfg)
			drive(src, 1, 20000)
			ws := src.WarmState()
			want := seeded(cfg, ws)

			h := New(cfg)
			drive(h, 2, 20000)
			if h.DMSHR.Allocs == 0 || h.IMSHR.Allocs == 0 || h.L1L2.BusyCycles() == 0 ||
				h.MemBus.BusyCycles() == 0 || h.l2pipe.nextSlot == 0 || h.DTLB.Misses == 0 ||
				h.DemandL2Misses == 0 || h.PrefL2Hits == 0 || h.L2.Stats().Evicts == 0 {
				t.Fatal("drive left some transient state or counter at zero; the test would prove nothing")
			}
			if err := h.Restore(ws); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(h, want) {
				t.Error("used hierarchy after Restore differs from New + snapshot")
			}
			if got := h.WarmState(); !reflect.DeepEqual(got, ws) {
				t.Error("WarmState after Restore differs from the snapshot restored")
			}

			fresh := New(cfg)
			if err := fresh.Restore(ws); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(fresh, want) {
				t.Error("fresh hierarchy after Restore differs from New + snapshot")
			}
		})
	}
}

// TestRestoreDoesNotAlias: running traffic through a restored
// hierarchy leaves the snapshot it came from untouched, so one
// checkpoint can seed every interval and every scheme.
func TestRestoreDoesNotAlias(t *testing.T) {
	for name, cfg := range restoreGeometries() {
		t.Run(name, func(t *testing.T) {
			src := New(cfg)
			drive(src, 3, 20000)
			ws := src.WarmState()
			h := New(cfg)
			if err := h.Restore(ws); err != nil {
				t.Fatal(err)
			}
			drive(h, 4, 20000)
			if !reflect.DeepEqual(ws, src.WarmState()) {
				t.Error("using the restored hierarchy changed the source snapshot")
			}
			if reflect.DeepEqual(h.WarmState(), ws) {
				t.Fatal("restored hierarchy did not move; the test would prove nothing")
			}
		})
	}
}

// TestRestoreRejectsMismatchedShape: a snapshot from another geometry
// is refused with the shape error, and the hierarchy is left exactly
// as it was — even when the mismatch is in a later structure than one
// that fits.
func TestRestoreRejectsMismatchedShape(t *testing.T) {
	geoms := restoreGeometries()
	base, small := geoms["32K 4-way"], geoms["16K 4-way"]
	src := New(base)
	drive(src, 5, 5000)
	good := src.WarmState()

	shortL2 := good
	shortL2.L2.Lines = good.L2.Lines[:len(good.L2.Lines)-1]
	shortTLB := good
	shortTLB.DTLB.LastUse = good.DTLB.LastUse[:10]
	badMRU := good
	badMRU.DTLB.MRU = base.TLBEntries
	badUsed := good
	badUsed.DTLB.Used = -1

	cases := []struct {
		name string
		cfg  Config
		ws   WarmState
		want string
	}{
		{"L1D geometry", small, good, `mem: cache "L1D": snapshot has 1024 lines, geometry wants 512`},
		{"L2 lines", base, shortL2, `mem: cache "L2": snapshot has 16383 lines, geometry wants 16384`},
		{"TLB slots", base, shortTLB, "mem: TLB snapshot has 64/10 slots, geometry wants 64"},
		{"TLB mru", base, badMRU, "mem: TLB snapshot used=64 mru=64 out of range for 64 entries"},
		{"TLB used", base, badUsed, fmt.Sprintf("mem: TLB snapshot used=-1 mru=%d out of range for 64 entries", good.DTLB.MRU)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			h := New(c.cfg)
			drive(h, 6, 5000)
			before := New(c.cfg)
			drive(before, 6, 5000)
			err := h.Restore(c.ws)
			if err == nil || err.Error() != c.want {
				t.Fatalf("Restore error = %v, want %q", err, c.want)
			}
			if !reflect.DeepEqual(h, before) {
				t.Error("a rejected Restore changed the hierarchy")
			}
		})
	}
}

// TestRestoreAllocatesNothing pins the point of restoring in place: a
// sampled cell restores its hierarchy at every interval, and a fresh
// default hierarchy is about 290 KB.
func TestRestoreAllocatesNothing(t *testing.T) {
	for name, cfg := range restoreGeometries() {
		t.Run(name, func(t *testing.T) {
			src := New(cfg)
			drive(src, 7, 5000)
			ws := src.WarmState()
			h := New(cfg)
			if allocs := testing.AllocsPerRun(100, func() {
				if err := h.Restore(ws); err != nil {
					t.Fatal(err)
				}
			}); allocs != 0 {
				t.Errorf("Restore allocated %v times per call, want 0", allocs)
			}
		})
	}
}
