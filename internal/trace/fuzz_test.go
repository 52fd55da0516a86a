package trace

// FuzzDecoder checks the decoder's arbitrary-input contract: any byte
// string — truncated, bit-flipped, or adversarial — yields an error or
// a finite record stream, never a panic or an unbounded allocation.
// The seed corpus covers a valid encoding, its truncations, a record
// carrying the retired sequence-gap flag, and a few corrupt headers,
// matching the repository's fuzz conventions (see
// internal/sim/fuzz_test.go).

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/vm"
)

// fuzzInsts is a synthetic stream touching every flag path.
var fuzzInsts = []vm.DynInst{
	{PC: 0, NextPC: 4, Op: 1},
	{PC: 4, NextPC: 8, Op: 2, Rd: 1, Rs1: 2, Rs2: 3},
	{PC: 8, NextPC: 64, Op: 3, Taken: true},
	{PC: 64, NextPC: 68, Op: 4, MemSize: 8, EffAddr: 0x7000},
	{PC: 100, NextPC: 104, Op: 4, MemSize: 4, EffAddr: 0x10},
}

// seqGapStream encodes fuzzInsts with the last record written as an
// encoder that still carried sequence numbers would write a record
// whose number skips one: flag bit 2 set and a zigzag delta of 1
// before the PC delta. The decoder must reject that record.
func seqGapStream(tb testing.TB) []byte {
	tb.Helper()
	var buf bytes.Buffer
	n := len(fuzzInsts)
	if err := writeTrace(&buf, Header{
		Workload: "fuzz", Seed: -3, MaxInsts: uint64(n), Count: uint64(n), Complete: true,
	}, fuzzInsts[:n-1]); err != nil {
		tb.Fatal(err)
	}
	prev, d := fuzzInsts[n-2], fuzzInsts[n-1]
	b := append(buf.Bytes(), byte(d.Op), flagMem|1<<2|flagPC, byte(d.Rd), byte(d.Rs1), byte(d.Rs2))
	b = binary.AppendUvarint(b, zigzag(1))
	b = binary.AppendUvarint(b, zigzag(d.PC-prev.NextPC))
	b = append(b, d.MemSize)
	return binary.AppendUvarint(b, zigzag(d.EffAddr-prev.EffAddr))
}

func FuzzDecoder(f *testing.F) {
	var buf bytes.Buffer
	if err := writeTrace(&buf, Header{
		Workload: "fuzz", Seed: -3, MaxInsts: 5, Count: 5, Complete: true,
	}, fuzzInsts); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:len(Magic)+1])
	f.Add(seqGapStream(f))
	f.Add([]byte(Magic))
	f.Add([]byte("PSBTRC99garbage"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		dec, err := NewDecoder(bytes.NewReader(data))
		if err != nil {
			return
		}
		n := 0
		for {
			_, err := dec.Next()
			if err != nil {
				// The error must be sticky: a caller that keeps pulling
				// must not spin or revive the stream.
				if _, err2 := dec.Next(); err2 != err {
					t.Fatalf("error not sticky: %v then %v", err, err2)
				}
				return
			}
			// The record count is bounded by the header's Count, which a
			// hostile header can inflate, but each record consumes at
			// least 5 input bytes — so decoding always terminates. Guard
			// anyway so a logic bug fails fast instead of spinning.
			if n++; n > len(data) {
				t.Fatalf("decoded more records (%d) than input bytes (%d)", n, len(data))
			}
		}
	})
}
