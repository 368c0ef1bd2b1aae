// Package checkpoint persists and restores the durable state of a
// continuous searcher: the in-window edge suffix (from which all engine
// state — expansion lists, MS-trees, standing matches — is a pure
// function), the stream cursor, and the externally visible counters.
//
// A checkpoint bounds recovery work: restart cost is (re-feed the
// checkpointed window) + (replay the WAL suffix after the checkpoint)
// instead of replaying the entire log from the beginning of time.
//
// Checkpoints are written atomically (temp file + rename) and carry a
// whole-payload CRC so a torn or corrupted file is detected and skipped
// in favour of the previous one.
package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"timingsubg/internal/graph"
)

const (
	magic      = "TSCKPT01"
	filePrefix = "checkpoint-"
	fileSuffix = ".ckpt"
)

// ErrCorrupt reports an unreadable checkpoint file.
var ErrCorrupt = errors.New("checkpoint: corrupt file")

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Checkpoint is the durable state of a searcher at a cut point.
type Checkpoint struct {
	// NextSeq is the checkpoint's LSN: the WAL sequence number of the
	// first edge NOT covered by this checkpoint. Recovery replays the
	// WAL from here, and the checkpoint file itself is named by it, so
	// a checkpoint names the exact log position it covers. See LSN.
	NextSeq int64
	// Window is the sliding-window duration the searcher ran with.
	Window graph.Timestamp
	// Matches and Discarded are the counter values at the cut point.
	Matches   int64
	Discarded int64
	// Edges are the in-window edges at the cut point, oldest first,
	// with their original IDs and timestamps.
	Edges []graph.Edge
}

// LSN returns the log position this checkpoint covers: every WAL
// record below it is folded into the checkpointed window state, and
// recovery replays from it. It is the value the WAL's truncation gate
// (wal.Log.SetCheckpointLSN) keys on — segments wholly below the last
// durable checkpoint LSN are reclaimable.
func (ck Checkpoint) LSN() int64 { return ck.NextSeq }

// LatestLSN returns the LSN of the newest readable checkpoint in dir —
// the position below which the WAL may safely be truncated. ok is
// false on a cold start (no readable checkpoint).
func LatestLSN(dir string) (lsn int64, ok bool, err error) {
	ck, ok, err := Load(dir)
	if err != nil || !ok {
		return 0, ok, err
	}
	return ck.LSN(), true, nil
}

// Dir returns the directory holding query's checkpoints under a
// durability directory root: root itself for a single-query engine,
// whose one query is unnamed (""), and root/ck/<query> for a fleet
// member. It is the one definition of the on-disk layout, shared by
// recovery and by the tools that inspect a directory.
func Dir(root, query string) string {
	if query == "" {
		return root
	}
	return filepath.Join(root, membersDir, query)
}

// membersDir is the subdirectory of a fleet's durability directory
// that holds one checkpoint directory per member.
const membersDir = "ck"

// Queries lists the queries whose checkpoints root holds, in name
// order: each fleet member's name for a fleet directory, [""] for a
// single-query engine's, and none when root holds no checkpoint.
func Queries(root string) ([]string, error) {
	entries, err := os.ReadDir(filepath.Join(root, membersDir))
	if err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	var names []string
	for _, ent := range entries {
		if ent.IsDir() {
			names = append(names, ent.Name())
		}
	}
	if len(names) > 0 {
		return names, nil // os.ReadDir sorts by name
	}
	own, err := list(root)
	if err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	if len(own) > 0 {
		return []string{""}, nil
	}
	return nil, nil
}

// Save atomically writes ck into dir. Older checkpoints are retained
// until GC removes them, so a crash mid-save can always fall back.
func Save(dir string, ck Checkpoint) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("checkpoint: mkdir: %w", err)
	}
	payload := encode(ck)
	buf := make([]byte, 0, len(magic)+len(payload)+4)
	buf = append(buf, magic...)
	buf = append(buf, payload...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(payload, crcTable))

	tmp, err := os.CreateTemp(dir, "ckpt-*.tmp")
	if err != nil {
		return fmt.Errorf("checkpoint: temp: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("checkpoint: write: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("checkpoint: sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("checkpoint: close: %w", err)
	}
	final := filepath.Join(dir, name(ck.NextSeq))
	if err := os.Rename(tmpName, final); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("checkpoint: rename: %w", err)
	}
	return nil
}

// Load returns the newest readable checkpoint in dir. ok is false when
// no checkpoint exists (or none is readable) — that is a cold start,
// not an error. Unreadable newer files are skipped with a fallback to
// older ones, implementing the save-then-GC crash contract.
func Load(dir string) (ck Checkpoint, ok bool, err error) {
	names, err := list(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return Checkpoint{}, false, nil
		}
		return Checkpoint{}, false, err
	}
	for i := len(names) - 1; i >= 0; i-- {
		ck, err := read(filepath.Join(dir, names[i]))
		if err == nil {
			return ck, true, nil
		}
	}
	return Checkpoint{}, false, nil
}

// GC removes all but the newest keep checkpoint files.
func GC(dir string, keep int) error {
	if keep < 1 {
		keep = 1
	}
	names, err := list(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	for i := 0; i < len(names)-keep; i++ {
		if err := os.Remove(filepath.Join(dir, names[i])); err != nil {
			return fmt.Errorf("checkpoint: gc: %w", err)
		}
	}
	return nil
}

func name(nextSeq int64) string {
	return fmt.Sprintf("%s%016d%s", filePrefix, nextSeq, fileSuffix)
}

// list returns checkpoint file names sorted oldest first.
func list(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, ent := range entries {
		n := ent.Name()
		if !strings.HasPrefix(n, filePrefix) || !strings.HasSuffix(n, fileSuffix) {
			continue
		}
		if _, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimPrefix(n, filePrefix), fileSuffix), 10, 64); err != nil {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}

func encode(ck Checkpoint) []byte {
	b := binary.AppendVarint(nil, ck.NextSeq)
	b = binary.AppendVarint(b, int64(ck.Window))
	b = binary.AppendVarint(b, ck.Matches)
	b = binary.AppendVarint(b, ck.Discarded)
	b = binary.AppendUvarint(b, uint64(len(ck.Edges)))
	for _, e := range ck.Edges {
		b = binary.AppendVarint(b, int64(e.ID))
		b = binary.AppendVarint(b, int64(e.From))
		b = binary.AppendVarint(b, int64(e.To))
		b = binary.AppendVarint(b, int64(e.FromLabel))
		b = binary.AppendVarint(b, int64(e.ToLabel))
		b = binary.AppendVarint(b, int64(e.EdgeLabel))
		b = binary.AppendVarint(b, int64(e.Time))
	}
	return b
}

func read(path string) (Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Checkpoint{}, fmt.Errorf("checkpoint: read %s: %w", path, err)
	}
	if len(data) < len(magic)+4 || string(data[:len(magic)]) != magic {
		return Checkpoint{}, fmt.Errorf("%w: %s: bad header", ErrCorrupt, path)
	}
	payload := data[len(magic) : len(data)-4]
	crc := binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.Checksum(payload, crcTable) != crc {
		return Checkpoint{}, fmt.Errorf("%w: %s: checksum mismatch", ErrCorrupt, path)
	}
	return decode(payload, path)
}

func decode(payload []byte, path string) (Checkpoint, error) {
	rd := payload
	get := func() (int64, error) {
		v, n := binary.Varint(rd)
		if n <= 0 {
			return 0, fmt.Errorf("%w: %s: truncated payload", ErrCorrupt, path)
		}
		rd = rd[n:]
		return v, nil
	}
	var ck Checkpoint
	var v int64
	var err error
	if ck.NextSeq, err = get(); err != nil {
		return ck, err
	}
	if v, err = get(); err != nil {
		return ck, err
	}
	ck.Window = graph.Timestamp(v)
	if ck.Matches, err = get(); err != nil {
		return ck, err
	}
	if ck.Discarded, err = get(); err != nil {
		return ck, err
	}
	cnt, n := binary.Uvarint(rd)
	if n <= 0 || cnt > uint64(len(rd)) {
		return ck, fmt.Errorf("%w: %s: bad edge count", ErrCorrupt, path)
	}
	rd = rd[n:]
	ck.Edges = make([]graph.Edge, 0, cnt)
	for i := uint64(0); i < cnt; i++ {
		var e graph.Edge
		if v, err = get(); err != nil {
			return ck, err
		}
		e.ID = graph.EdgeID(v)
		if v, err = get(); err != nil {
			return ck, err
		}
		e.From = graph.VertexID(v)
		if v, err = get(); err != nil {
			return ck, err
		}
		e.To = graph.VertexID(v)
		if v, err = get(); err != nil {
			return ck, err
		}
		e.FromLabel = graph.Label(v)
		if v, err = get(); err != nil {
			return ck, err
		}
		e.ToLabel = graph.Label(v)
		if v, err = get(); err != nil {
			return ck, err
		}
		e.EdgeLabel = graph.Label(v)
		if v, err = get(); err != nil {
			return ck, err
		}
		e.Time = graph.Timestamp(v)
		ck.Edges = append(ck.Edges, e)
	}
	if len(rd) != 0 {
		return ck, fmt.Errorf("%w: %s: trailing bytes", ErrCorrupt, path)
	}
	return ck, nil
}
