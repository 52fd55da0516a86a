package mem

import "fmt"

// Warm-state snapshots for sampled simulation. A snapshot captures
// exactly the state that determines future hit/miss behaviour — tag
// arrays, LRU clocks, TLB residency — and nothing else: statistics
// counters are not part of a snapshot, so a restored structure starts
// with clean stats. Geometry is not captured either; a snapshot may
// only be applied to a structure built from the same configuration,
// and SetState validates the shapes to catch mismatches.

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

// SetState overwrites the cache's tag array and LRU clock from a
// snapshot taken from an identically-configured cache. Statistics are
// left untouched.
func (c *Cache) SetState(st CacheState) error {
	if len(st.Lines) != len(c.lines) {
		return fmt.Errorf("mem: cache %q: snapshot has %d lines, geometry wants %d",
			c.cfg.Name, len(st.Lines), len(c.lines))
	}
	for i, l := range st.Lines {
		c.lines[i] = cacheLine{tag: l.Tag, lastUse: l.LastUse}
	}
	c.clock = st.Clock
	return nil
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

// SetState overwrites the TLB's residency state from a snapshot taken
// from an identically-sized TLB. Statistics are left untouched.
func (t *TLB) SetState(st TLBState) error {
	if len(st.Pages) != t.entries || len(st.LastUse) != t.entries {
		return fmt.Errorf("mem: TLB snapshot has %d/%d slots, geometry wants %d",
			len(st.Pages), len(st.LastUse), t.entries)
	}
	if st.Used < 0 || st.Used > t.entries || st.MRU < 0 || st.MRU >= t.entries {
		return fmt.Errorf("mem: TLB snapshot used=%d mru=%d out of range for %d entries",
			st.Used, st.MRU, t.entries)
	}
	copy(t.pages, st.Pages)
	copy(t.lastUse, st.LastUse)
	t.used = st.Used
	t.mru = st.MRU
	t.clock = st.Clock
	return nil
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

// SetWarmState restores a snapshot taken from an identically-configured
// hierarchy.
func (h *Hierarchy) SetWarmState(ws WarmState) error {
	if err := h.L1D.SetState(ws.L1D); err != nil {
		return err
	}
	if err := h.L1I.SetState(ws.L1I); err != nil {
		return err
	}
	if err := h.L2.SetState(ws.L2); err != nil {
		return err
	}
	return h.DTLB.SetState(ws.DTLB)
}
