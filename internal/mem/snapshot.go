package mem

import "fmt"

// Warm-state snapshots for sampled simulation. A snapshot captures
// exactly the state that determines future hit/miss behaviour — tag
// arrays, LRU clocks, TLB residency — and nothing else: statistics
// counters are not part of a snapshot, so a restored structure starts
// with clean stats. Geometry is not captured either; a snapshot may
// only be applied to a structure built from the same configuration,
// and Restore validates the shapes to catch mismatches.

// CacheLineState is one tag-array line of a CacheState. As in the
// live tag array, LastUse == 0 marks an invalid line.
type CacheLineState struct {
	Tag     uint64
	LastUse uint64
}

// CacheState is the replacement-relevant state of a Cache.
type CacheState struct {
	Clock uint64
	Lines []CacheLineState // sets*ways, row-major by set
}

// State returns a deep copy of the cache's tag array and LRU clock.
func (c *Cache) State() CacheState {
	st := CacheState{Clock: c.clock, Lines: make([]CacheLineState, len(c.lines))}
	for i, l := range c.lines {
		st.Lines[i] = CacheLineState{Tag: l.tag, LastUse: l.lastUse}
	}
	return st
}

// checkState reports whether st was taken from a cache of this
// geometry.
func (c *Cache) checkState(st CacheState) error {
	if len(st.Lines) != len(c.lines) {
		return fmt.Errorf("mem: cache %q: snapshot has %d lines, geometry wants %d",
			c.cfg.Name, len(st.Lines), len(c.lines))
	}
	return nil
}

// restore overwrites the tag array and LRU clock from st, which
// checkState has accepted, and zeroes the statistics.
func (c *Cache) restore(st CacheState) {
	for i, l := range st.Lines {
		c.lines[i] = cacheLine{tag: l.Tag, lastUse: l.LastUse}
	}
	c.clock = st.Clock
	c.stats = CacheStats{}
}

// TLBState is the residency state of a TLB.
type TLBState struct {
	Clock   uint64
	Used    int
	MRU     int
	Pages   []uint64
	LastUse []uint64
}

// State returns a deep copy of the TLB's residency state.
func (t *TLB) State() TLBState {
	return TLBState{
		Clock:   t.clock,
		Used:    t.used,
		MRU:     t.mru,
		Pages:   append([]uint64(nil), t.pages...),
		LastUse: append([]uint64(nil), t.lastUse...),
	}
}

// checkState reports whether st was taken from a TLB of this size.
func (t *TLB) checkState(st TLBState) error {
	if len(st.Pages) != t.entries || len(st.LastUse) != t.entries {
		return fmt.Errorf("mem: TLB snapshot has %d/%d slots, geometry wants %d",
			len(st.Pages), len(st.LastUse), t.entries)
	}
	if st.Used < 0 || st.Used > t.entries || st.MRU < 0 || st.MRU >= t.entries {
		return fmt.Errorf("mem: TLB snapshot used=%d mru=%d out of range for %d entries",
			st.Used, st.MRU, t.entries)
	}
	return nil
}

// restore overwrites the residency state from st, which checkState
// has accepted, and zeroes the statistics.
func (t *TLB) restore(st TLBState) {
	copy(t.pages, st.Pages)
	copy(t.lastUse, st.LastUse)
	t.used = st.Used
	t.mru = st.MRU
	t.clock = st.Clock
	t.Accesses, t.Misses = 0, 0
}

// WarmState is the scheme-independent warm state of a Hierarchy: every
// structure whose contents at an interval boundary affect the timing of
// the detailed interval that follows, excluding transient machinery
// (MSHRs, buses, the L2 pipeline) that drains within a few hundred
// cycles and is absorbed by the detailed warm-up prefix.
type WarmState struct {
	L1D  CacheState
	L1I  CacheState
	L2   CacheState
	DTLB TLBState
}

// WarmState snapshots the hierarchy's caches and DTLB.
func (h *Hierarchy) WarmState() WarmState {
	return WarmState{
		L1D:  h.L1D.State(),
		L1I:  h.L1I.State(),
		L2:   h.L2.State(),
		DTLB: h.DTLB.State(),
	}
}

// Restore puts the hierarchy in exactly the state New(cfg) followed by
// loading ws would give, in place: the tag arrays, LRU clocks and DTLB
// are copied from ws, while the MSHRs, both buses, the L2 pipeline and
// every counter go back to zero. It allocates nothing, so a sampled
// run builds one hierarchy per cell and restores it at every interval.
// ws must come from an identically-configured hierarchy; every shape
// is checked before anything is written, so on error the hierarchy is
// unchanged. Restore copies out of ws and never aliases it.
func (h *Hierarchy) Restore(ws WarmState) error {
	for _, err := range [...]error{
		h.L1D.checkState(ws.L1D),
		h.L1I.checkState(ws.L1I),
		h.L2.checkState(ws.L2),
		h.DTLB.checkState(ws.DTLB),
	} {
		if err != nil {
			return err
		}
	}
	h.L1D.restore(ws.L1D)
	h.L1I.restore(ws.L1I)
	h.L2.restore(ws.L2)
	h.DTLB.restore(ws.DTLB)
	h.L1L2.reset()
	h.MemBus.reset()
	h.DMSHR.reset()
	h.IMSHR.reset()
	h.l2pipe.nextSlot = 0
	h.DemandL2Hits, h.DemandL2Misses = 0, 0
	h.PrefL2Hits, h.PrefL2Misses = 0, 0
	return nil
}
