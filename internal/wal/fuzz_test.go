package wal

import (
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"timingsubg/internal/graph"
)

// FuzzReplaySegment writes arbitrary bytes as a segment file and drives
// the whole streaming read path over it: Replay either errors cleanly
// or yields decodable records — never panics — and Open either rejects
// the segment or repairs it (truncating the torn tail / dropping a
// headerless file) into a log that accepts appends and replays them.
func FuzzReplaySegment(f *testing.F) {
	// Seed with a valid 3-record segment.
	seed := []byte(magic)
	for i := int64(0); i < 3; i++ {
		payload := appendEdge(nil, testEdge(i))
		seed = appendUvarint(seed, uint64(len(payload)))
		seed = append(seed, payload...)
		seed = appendCRC(seed, payload)
	}
	f.Add(seed)
	f.Add([]byte(magic))
	f.Add([]byte("garbage"))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(0)), data, 0o644); err != nil {
			t.Skip()
		}
		var n int64
		end, rerr := Replay(dir, 0, func(seq int64, e graph.Edge) error {
			// The codec excludes the ID (replay assigns it), so compare
			// the ID-less projection.
			e.ID = 0
			if got, err := decodeEdge(appendEdge(nil, e)); err != nil || got != e {
				t.Fatalf("yielded edge does not round-trip: %+v", e)
			}
			n++
			return nil
		})
		// Open on the same bytes: reject or repair, never panic. A
		// repaired log continues exactly after the intact prefix and
		// stays append-able.
		l, err := Open(dir, Options{})
		if err != nil {
			return
		}
		if rerr == nil && l.Seq() != end {
			t.Fatalf("Open continued at %d, replay ended at %d", l.Seq(), end)
		}
		if _, err := appendOne(l, testEdge(n)); err != nil {
			t.Fatalf("append to repaired log: %v", err)
		}
		if err := l.Close(); err != nil {
			t.Fatalf("close repaired log: %v", err)
		}
		if end2, err := Replay(dir, 0, func(int64, graph.Edge) error { return nil }); err != nil || end2 != l.Seq() {
			t.Fatalf("replay after repair+append: end=%d err=%v, log %d", end2, err, l.Seq())
		}
	})
}

func appendUvarint(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

func appendCRC(b, payload []byte) []byte {
	crc := crc32.Checksum(payload, crcTable)
	return append(b, byte(crc), byte(crc>>8), byte(crc>>16), byte(crc>>24))
}
