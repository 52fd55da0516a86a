package runner

import (
	"bufio"
	"encoding/json"
	"io"
	"os"
	"sync"

	"repro/internal/core"
	"repro/internal/sim"
)

// checkpointRecord is one completed cell in the JSONL checkpoint.
// Workload and Variant are informational (they make the journal
// greppable); lookup is by fingerprint alone.
type checkpointRecord struct {
	Fingerprint string       `json:"fp"`
	Workload    string       `json:"workload"`
	Variant     core.Variant `json:"variant"`
	Result      sim.Result   `json:"result"`
}

// Checkpoint is the table of completed matrix cells, keyed by
// Job.Fingerprint, with an optional append-only JSONL journal behind
// it. Pool.RunChecked looks every job up here before dispatch and
// records each newly completed cell, so a cell is simulated once per
// table however many job lists carry it.
//
// A journaled table (OpenCheckpoint) writes and flushes one line per
// Record, so a killed run loses at most the cells still in flight;
// reopening with resume=true restores every completed cell and a
// subsequent run skips them, reproducing the uninterrupted run's
// results exactly (results round-trip JSON losslessly). A file-less
// table (NewCheckpoint) lives only as long as the process.
type Checkpoint struct {
	mu    sync.Mutex
	f     *os.File // nil for a file-less table
	cache map[string]entry
	// journalHits counts lookups served by records loaded from the
	// journal on resume, as opposed to cells completed in-process.
	journalHits int
}

// entry is one completed cell; journaled marks a record loaded from
// the journal on resume.
type entry struct {
	res       sim.Result
	journaled bool
}

// process is the file-less table Pool.RunChecked uses when
// Options.Checkpoint is nil: one per process, never written to disk.
// The serving Dispatcher path does not consult it.
var process = NewCheckpoint()

// NewCheckpoint returns an empty file-less table. A caller that must
// simulate every cell (a timed benchmark leg, a run compared against
// another) passes a fresh one in Options.Checkpoint instead of sharing
// the process table.
func NewCheckpoint() *Checkpoint {
	return &Checkpoint{cache: make(map[string]entry)}
}

// OpenCheckpoint opens the journal at path for appending. With resume
// set, existing records are loaded first — tolerating (and truncating
// away) a torn final line from a killed writer; without it any
// existing file is truncated to empty.
func OpenCheckpoint(path string, resume bool) (*Checkpoint, error) {
	flags := os.O_CREATE | os.O_RDWR
	if !resume {
		flags |= os.O_TRUNC
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return nil, err
	}
	c := NewCheckpoint()
	c.f = f
	if resume {
		if err := c.load(); err != nil {
			f.Close()
			return nil, err
		}
	}
	return c, nil
}

// load replays intact records and positions the file for appending
// after the last one, dropping a torn or corrupt tail.
func (c *Checkpoint) load() error {
	r := bufio.NewReader(c.f)
	off := int64(0)
	for {
		line, err := r.ReadBytes('\n')
		if err == io.EOF {
			// A record without its newline is a torn tail from a
			// killed run; drop it.
			break
		}
		if err != nil {
			return err
		}
		var rec checkpointRecord
		if json.Unmarshal(line, &rec) != nil || rec.Fingerprint == "" {
			// Corrupt line: everything before it is intact, nothing
			// after it is trustworthy.
			break
		}
		c.cache[rec.Fingerprint] = entry{res: rec.Result, journaled: true}
		off += int64(len(line))
	}
	if err := c.f.Truncate(off); err != nil {
		return err
	}
	_, err := c.f.Seek(off, io.SeekStart)
	return err
}

// Lookup returns the cached result for a fingerprint.
func (c *Checkpoint) Lookup(fp string) (sim.Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.cache[fp]
	if e.journaled {
		c.journalHits++
	}
	return e.res, ok
}

// JournalHits returns how many lookups were served by records loaded
// from the journal, as opposed to cells completed in this process.
func (c *Checkpoint) JournalHits() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.journalHits
}

// Len returns the number of cached cells.
func (c *Checkpoint) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.cache)
}

// Record stores one completed cell. A journaled table first appends
// the cell's line and flushes it to the OS, so the line survives the
// process dying right after.
func (c *Checkpoint) Record(fp string, j Job, res sim.Result) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.f != nil {
		b, err := json.Marshal(checkpointRecord{
			Fingerprint: fp, Workload: j.Workload.Name, Variant: j.Variant, Result: res,
		})
		if err != nil {
			return err
		}
		if _, err := c.f.Write(append(b, '\n')); err != nil {
			return err
		}
	}
	c.cache[fp] = entry{res: res}
	return nil
}

// Close closes the journal file; it is a no-op for a file-less table.
func (c *Checkpoint) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.f == nil {
		return nil
	}
	return c.f.Close()
}
