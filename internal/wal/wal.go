// Package wal implements a segmented, checksummed, group-committed
// write-ahead log of streaming-graph edges. It is the durability
// substrate for durable engines: every edge is appended (and durably
// committed, per the configured cadence) before it reaches the matching
// engine, so that after a crash the engine's state — which is a pure
// function of the in-window edge suffix — can be rebuilt by replay.
//
// # LSNs
//
// Every record carries a log sequence number (LSN): a monotonic int64
// assigned at append time, equal to the number of records ever
// appended before it. LSNs are the log's addressing scheme end to end:
// segments are named by the LSN of their first record, checkpoints name
// the exact LSN they cover (checkpoint.Checkpoint.LSN), replay cursors
// and truncation points are LSNs, and the durable horizon — the LSN
// below which every record has been fsynced — is an LSN. The same
// stream doubles as the replication log for a future clustered mode.
//
// # Group commit
//
// A Log is safe for concurrent use. Concurrent committers (fleet
// shards, server ingest handlers, background syncers) coalesce into a
// single fsync: the first committer to find no fsync in flight becomes
// the leader and syncs the tail once, covering every record appended
// before the fsync began; committers arriving while it runs append
// under the lock (released for the fsync itself), wait, and re-elect a
// leader only if their records were not covered. Options.SyncEvery
// sets the per-record durability cadence and Options.SyncInterval adds
// a background commit tick — together the explicit durability /
// throughput lever.
//
// # Format
//
// A log is a directory of segment files named wal-<firstLSN>.seg. Each
// segment starts with an 8-byte magic ("TSWAL001") followed by records:
//
//	record := uvarint(len(payload)) payload crc32c(payload)
//	payload := varint fields of the edge (From, To, FromLabel, ToLabel,
//	           EdgeLabel, Time)
//
// The CRC lets the reader detect a torn tail (a record cut short by a
// crash) and stop cleanly at the last intact record instead of
// propagating garbage, which is the standard recovery contract of
// database logs. Recovery reads are streaming — one buffered record at
// a time — so restart memory stays flat regardless of segment size.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"timingsubg/internal/graph"
	"timingsubg/internal/stats"
)

const (
	magic       = "TSWAL001"
	segPrefix   = "wal-"
	segSuffix   = ".seg"
	maxRecBytes = 1 << 20 // sanity bound on a single record
	readBufSize = 64 << 10
)

// ErrCorrupt reports a record whose checksum or framing is invalid in a
// position other than the log tail (tail corruption is silently
// truncated, interior corruption is an error).
var ErrCorrupt = errors.New("wal: corrupt record")

// errShortHeader marks a segment file shorter than the magic header —
// the on-disk shape of a crash during rotation, before the header write
// landed. The newest segment in that state holds no records and is
// dropped by Open/Replay; anywhere else it is corruption.
var errShortHeader = errors.New("wal: short segment header")

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// File is the writable handle a Log appends through. *os.File satisfies
// it; tests substitute failing implementations to exercise torn and
// failed writes (the fault-injection seam of the durability test suite).
type File interface {
	io.Writer
	io.Seeker
	Sync() error
	Close() error
	Truncate(size int64) error
}

// OpenFileFunc opens a segment file for writing. It mirrors os.OpenFile,
// which is the default.
type OpenFileFunc func(name string, flag int, perm os.FileMode) (File, error)

func osOpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}

// Options tunes a Log.
type Options struct {
	// SegmentBytes rotates to a new segment file once the current one
	// exceeds this size. Zero means 4 MiB.
	SegmentBytes int64
	// SyncEvery commits (fsyncs) once the number of records past the
	// durable horizon reaches n. Zero disables cadence commits (the OS
	// page cache still persists on clean shutdown); 1 gives per-record
	// durability. Concurrent committers coalesce into one fsync.
	SyncEvery int
	// SyncInterval, when positive, runs a background group commit at
	// this period: records are made durable within roughly one interval
	// of being appended even when SyncEvery is zero. It is the
	// throughput end of the durability lever — appends never block on
	// the disk, and the coalescing window is the interval.
	SyncInterval time.Duration
	// OpenFile replaces os.OpenFile for segment writes. Nil means
	// os.OpenFile; non-nil is the fault-injection seam — crash tests
	// wrap the real file to fail or tear a write mid-batch. Reads
	// (scan, replay) always go through the real filesystem.
	OpenFile OpenFileFunc
	// SyncHist, when non-nil, observes the duration of every successful
	// fsync the log performs. The fsync happens inside the commit path —
	// callers timing AppendBatch from outside cannot separate it — so the
	// log itself attributes it. Nil disables the measurement.
	SyncHist *stats.AtomicHistogram
	// GroupCommitHist, when non-nil, observes each committer's total
	// wait for durability — the batch-coalescing latency a caller pays
	// when its fsync is shared with (or queued behind) others. Only
	// commits that actually had to wait or sync are observed. Nil
	// disables the measurement.
	GroupCommitHist *stats.AtomicHistogram
}

func (o *Options) norm() {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.SyncEvery < 0 {
		o.SyncEvery = 0
	}
	if o.SyncInterval < 0 {
		o.SyncInterval = 0
	}
	if o.OpenFile == nil {
		o.OpenFile = osOpenFile
	}
}

// Log is an append-only edge log. It is safe for concurrent use:
// appends serialize under an internal mutex (released during fsyncs, so
// concurrent committers group-commit instead of queueing behind the
// disk).
type Log struct {
	dir  string
	opts Options

	mu     sync.Mutex
	commit sync.Cond // signaled when durable/syncing/failed/closed change

	f       File
	fileLen int64
	seq     int64 // next LSN to be assigned
	first   int64 // first LSN of the open segment
	durable int64 // records with LSN < durable are fsynced
	ckptLSN int64 // newest durable checkpoint LSN; -1 = none declared
	buf     []byte
	closed  bool
	failed  error // sticky write failure; non-nil fails appends until reopen
	syncing bool  // a leader fsync is in flight (mu released around it)

	syncs atomic.Int64 // fsyncs attempted (success or not)

	stopBg chan struct{} // non-nil while the background syncer runs
	bgDone chan struct{}
}

// Open opens (or creates) the log directory for appending. Existing
// segments are scanned; a torn tail record in the newest segment is
// truncated away, and a newest segment without a complete header (a
// crash during rotation) is removed. The returned log continues at the
// next LSN.
func Open(dir string, opts Options) (*Log, error) {
	opts.norm()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", dir, err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	l := &Log{dir: dir, opts: opts, ckptLSN: -1}
	l.commit.L = &l.mu

	// Drop headerless newest segments (crash mid-rotation): they hold no
	// records, but their name still pins the LSN cursor — a segment
	// created by SkipTo may name an LSN past the previous segment's end.
	skipped := int64(-1)
	for len(segs) > 0 {
		last := segs[len(segs)-1]
		path := filepath.Join(dir, last.name)
		n, end, err := scanSegment(path)
		if errors.Is(err, errShortHeader) {
			if err := os.Remove(path); err != nil {
				return nil, fmt.Errorf("wal: drop headerless segment %s: %w", path, err)
			}
			if last.firstSeq > skipped {
				skipped = last.firstSeq
			}
			segs = segs[:len(segs)-1]
			continue
		}
		if err != nil {
			return nil, err
		}
		f, err := opts.OpenFile(path, os.O_RDWR, 0)
		if err != nil {
			return nil, fmt.Errorf("wal: reopen %s: %w", path, err)
		}
		if err := f.Truncate(end); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: truncate torn tail of %s: %w", path, err)
		}
		if _, err := f.Seek(end, io.SeekStart); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: seek %s: %w", path, err)
		}
		l.f, l.fileLen, l.first = f, end, last.firstSeq
		l.seq = last.firstSeq + n
		break
	}
	if l.f == nil {
		firstSeq := int64(0)
		if skipped > 0 {
			firstSeq = skipped
		}
		if err := l.rotateLocked(firstSeq); err != nil {
			return nil, err
		}
		l.seq = firstSeq
	} else if skipped > l.seq {
		// The dropped segment was created by SkipTo past the tail; the
		// LSN cursor must not regress below it.
		if err := l.rotateLocked(skipped); err != nil {
			return nil, err
		}
		l.seq = skipped
	}
	// Everything read back (or synced by rotation) is as durable as a
	// restart can make it.
	l.durable = l.seq
	if opts.SyncInterval > 0 {
		l.startBackgroundSync()
	}
	return l, nil
}

// startBackgroundSync runs the SyncInterval group-commit tick until
// Close (or a sticky failure) stops it.
func (l *Log) startBackgroundSync() {
	l.stopBg = make(chan struct{})
	l.bgDone = make(chan struct{})
	stop, done := l.stopBg, l.bgDone
	go func() {
		defer close(done)
		tick := time.NewTicker(l.opts.SyncInterval)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				l.mu.Lock()
				if l.closed || l.failed != nil {
					l.mu.Unlock()
					return
				}
				if l.seq > l.durable {
					// A failed fsync keeps the debt; the next tick (or
					// any cadence commit) retries.
					_ = l.commitLocked(l.seq)
				}
				l.mu.Unlock()
			}
		}
	}()
}

// Seq returns the LSN the next appended record will get, which equals
// the number of records ever appended.
func (l *Log) Seq() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// DurableLSN returns the durable horizon: every record with a smaller
// LSN has been fsynced to stable storage.
func (l *Log) DurableLSN() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.durable
}

// Syncs returns the number of fsyncs the log has attempted — the
// denominator of the group-commit coalescing ratio (appends per fsync).
func (l *Log) Syncs() int64 { return l.syncs.Load() }

// Dir returns the log directory.
func (l *Log) Dir() string { return l.dir }

// usableLocked gates the append path on the log's lifecycle state.
func (l *Log) usableLocked() error {
	if l.failed != nil {
		return fmt.Errorf("wal: log failed: %w", l.failed)
	}
	if l.closed {
		return errors.New("wal: append to closed log")
	}
	return nil
}

// failLocked marks the log failed and returns err. After a partial
// (torn) write the in-memory cursor no longer matches the file — a
// retried append would land after the torn bytes and read back as
// interior corruption — so every later append and sync refuses until a
// reopen rescans and truncates the tail.
func (l *Log) failLocked(err error) error {
	l.failed = err
	l.commit.Broadcast()
	return err
}

// AppendBatch logs a batch of edges and returns the LSN of the first
// plus how many were appended. It is the log's one append path
// (Engine.Feed appends a batch of one): records are encoded into one
// buffer and written with one syscall per segment chunk, and the commit
// cadence is charged once for the whole batch — the batch is one
// durability unit, committing at most once, after the last record. On
// error, appended reports the records that landed
// before the failure; the log's cursor reflects exactly those, so the
// caller can keep engine state consistent with the log.
func (l *Log) AppendBatch(edges []graph.Edge) (first int64, appended int, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.usableLocked(); err != nil {
		return 0, 0, err
	}
	first = l.seq
	var payload []byte
	for appended < len(edges) {
		if err := l.maybeRotateLocked(); err != nil {
			return first, appended, err
		}
		// Fill one buffer up to the segment bound (always taking at
		// least one record so rotation makes progress).
		l.buf = l.buf[:0]
		chunkLen := l.fileLen
		count := 0
		for appended+count < len(edges) {
			if len(l.buf) > 0 && chunkLen >= l.opts.SegmentBytes {
				break
			}
			payload = appendEdge(payload[:0], edges[appended+count])
			l.buf = binary.AppendUvarint(l.buf, uint64(len(payload)))
			l.buf = append(l.buf, payload...)
			l.buf = binary.LittleEndian.AppendUint32(l.buf, crc32.Checksum(payload, crcTable))
			chunkLen = l.fileLen + int64(len(l.buf))
			count++
		}
		if _, err := l.f.Write(l.buf); err != nil {
			return first, appended, l.failLocked(fmt.Errorf("wal: append batch: %w", err))
		}
		l.fileLen = chunkLen
		l.seq += int64(count)
		appended += count
	}
	if l.opts.SyncEvery > 0 && l.seq-l.durable >= int64(l.opts.SyncEvery) {
		if err := l.commitLocked(l.seq); err != nil {
			return first, appended, err
		}
	}
	return first, appended, nil
}

// SkipTo advances the log's LSN cursor to seq, starting a fresh segment
// there. It is used when a checkpoint is newer than the log tail
// (possible when fsync is disabled and the tail was lost in a crash):
// the caller asserts a durable checkpoint at seq covers every record
// below it, so appends must continue at the checkpoint's cursor for
// edge IDs to stay aligned, and segments below seq are reclaimed (the
// checkpoint LSN gate is raised to seq accordingly). SkipTo is a no-op
// when the log is already at or past seq.
func (l *Log) SkipTo(seq int64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if seq <= l.seq {
		return nil
	}
	if err := l.usableLocked(); err != nil {
		return err
	}
	if err := l.rotateLocked(seq); err != nil {
		return err
	}
	l.seq = seq
	if seq > l.ckptLSN {
		l.ckptLSN = seq
	}
	return l.truncateFrontLocked(seq)
}

// Sync commits everything appended so far: it blocks until the durable
// horizon reaches the current tail, fsyncing at most once (a concurrent
// committer's fsync that already covers the tail satisfies it for
// free). The durability debt is cleared only by a successful fsync — a
// failed one leaves it in place for the next commit to retry.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.failed != nil {
		return fmt.Errorf("wal: log failed: %w", l.failed)
	}
	if l.closed {
		return errors.New("wal: sync closed log")
	}
	return l.commitLocked(l.seq)
}

// commitLocked blocks until every record below upto is durable,
// coalescing concurrent committers into one fsync: the first committer
// to find no fsync in flight becomes the leader and syncs the tail
// once, covering everyone who appended before the fsync began; arrivals
// during the fsync wait and re-elect a leader only if it did not cover
// them. The mutex is released around the fsync itself, so appends (and
// further committers) proceed while the disk works — the overlap that
// turns N concurrent per-batch fsyncs into one.
//
// Called with l.mu held; may release and retake it.
func (l *Log) commitLocked(upto int64) error {
	var wait time.Time
	if l.opts.GroupCommitHist != nil && l.durable < upto {
		wait = time.Now()
	}
	for l.durable < upto {
		if l.failed != nil {
			return fmt.Errorf("wal: log failed: %w", l.failed)
		}
		if l.closed {
			return errors.New("wal: sync closed log")
		}
		if l.syncing {
			l.commit.Wait()
			continue
		}
		covered := l.seq
		f := l.f
		l.syncing = true
		l.mu.Unlock()
		var t time.Time
		if l.opts.SyncHist != nil {
			t = time.Now()
		}
		err := f.Sync()
		if err == nil && l.opts.SyncHist != nil {
			l.opts.SyncHist.Observe(time.Since(t))
		}
		l.syncs.Add(1)
		l.mu.Lock()
		l.syncing = false
		if err == nil && covered > l.durable {
			l.durable = covered
		}
		l.commit.Broadcast()
		if err != nil {
			// The durable horizon stays put: the records are still
			// pending and the next commit retries the fsync. Unlike a
			// torn write this is not sticky — the in-memory cursor still
			// matches the file.
			return fmt.Errorf("wal: sync: %w", err)
		}
	}
	if l.opts.GroupCommitHist != nil && !wait.IsZero() {
		l.opts.GroupCommitHist.Observe(time.Since(wait))
	}
	return nil
}

// Close flushes and closes the log, stopping the background syncer.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	stop, done := l.stopBg, l.bgDone
	l.stopBg, l.bgDone = nil, nil
	l.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	for l.syncing {
		l.commit.Wait()
	}
	l.closed = true
	l.commit.Broadcast()
	if l.failed != nil {
		// The write path already failed and reported it; there is
		// nothing left to make durable.
		l.f.Close()
		return nil
	}
	if err := l.f.Sync(); err != nil {
		l.f.Close()
		return fmt.Errorf("wal: close: %w", err)
	}
	l.durable = l.seq
	return l.f.Close()
}

// SetCheckpointLSN raises the checkpoint gate: the LSN of the newest
// durable checkpoint. TruncateFront never reclaims records at or above
// the gate — a truncation request past it is clamped — so the log can
// never drop records no checkpoint covers. Engines raise the gate after
// every successful checkpoint save.
func (l *Log) SetCheckpointLSN(lsn int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if lsn > l.ckptLSN {
		l.ckptLSN = lsn
	}
}

// CheckpointLSN returns the checkpoint gate (-1 when none has been
// declared; truncation is then unrestricted, for standalone logs with
// their own retention logic).
func (l *Log) CheckpointLSN() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ckptLSN
}

// TruncateFront removes whole segments all of whose records have
// LSN < keep, clamped to the checkpoint gate (SetCheckpointLSN).
// Records >= keep are never removed; the cut is conservative (segment
// granularity), which is all checkpoint GC needs: after a checkpoint at
// LSN n, TruncateFront(n) bounds the on-disk log to the records the
// checkpoint does not cover — the window span — plus the open segment.
func (l *Log) TruncateFront(keep int64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.truncateFrontLocked(keep)
}

func (l *Log) truncateFrontLocked(keep int64) error {
	if l.ckptLSN >= 0 && keep > l.ckptLSN {
		keep = l.ckptLSN
	}
	segs, err := listSegments(l.dir)
	if err != nil {
		return err
	}
	for i, s := range segs {
		// A segment is removable when the next segment starts at or
		// below keep (so every record here is < keep). The open segment
		// is never removed.
		if i+1 >= len(segs) || segs[i+1].firstSeq > keep {
			break
		}
		if s.firstSeq == l.first {
			break
		}
		if err := os.Remove(filepath.Join(l.dir, s.name)); err != nil {
			return fmt.Errorf("wal: truncate front: %w", err)
		}
	}
	return nil
}

// maybeRotateLocked rotates when the open segment is full, re-checking
// after every wait: while a leader fsync is in flight the file cannot
// be swapped out from under it, and another appender may have rotated
// (or failed the log) by the time the fsync completes.
func (l *Log) maybeRotateLocked() error {
	for l.fileLen >= l.opts.SegmentBytes && l.seq > l.first {
		if err := l.usableLocked(); err != nil {
			return err
		}
		if l.syncing {
			l.commit.Wait()
			continue
		}
		return l.rotateLocked(l.seq)
	}
	return nil
}

// rotateLocked syncs and closes the open segment and starts a new one
// whose name pins firstSeq. Rotation is a commit point: the old
// segment's fsync advances the durable horizon to the current tail. A
// rotation failure marks the log failed — the segment state on disk is
// ambiguous afterwards.
func (l *Log) rotateLocked(firstSeq int64) error {
	for l.syncing {
		l.commit.Wait()
	}
	if l.f != nil {
		if err := l.f.Sync(); err != nil {
			return l.failLocked(fmt.Errorf("wal: rotate sync: %w", err))
		}
		if err := l.f.Close(); err != nil {
			return l.failLocked(fmt.Errorf("wal: rotate close: %w", err))
		}
		if l.seq > l.durable {
			l.durable = l.seq
			l.commit.Broadcast()
		}
	}
	name := segName(firstSeq)
	f, err := l.opts.OpenFile(filepath.Join(l.dir, name), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return l.failLocked(fmt.Errorf("wal: rotate: %w", err))
	}
	if _, err := f.Write([]byte(magic)); err != nil {
		f.Close()
		return l.failLocked(fmt.Errorf("wal: rotate header: %w", err))
	}
	l.f, l.fileLen, l.first = f, int64(len(magic)), firstSeq
	return nil
}

func segName(firstSeq int64) string {
	return fmt.Sprintf("%s%016d%s", segPrefix, firstSeq, segSuffix)
}

type segInfo struct {
	name     string
	firstSeq int64
}

func listSegments(dir string) ([]segInfo, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: list %s: %w", dir, err)
	}
	var segs []segInfo
	for _, ent := range entries {
		name := ent.Name()
		if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		numStr := strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix)
		n, err := strconv.ParseInt(numStr, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("wal: bad segment name %q: %w", name, err)
		}
		segs = append(segs, segInfo{name: name, firstSeq: n})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].firstSeq < segs[j].firstSeq })
	return segs, nil
}

// segReader streams one segment's records through a fixed-size buffer —
// the entry-at-a-time recovery read path. The record buffer is reused
// across records, so scanning a multi-megabyte segment allocates a few
// dozen kilobytes, not the segment.
type segReader struct {
	f   *os.File
	br  *bufio.Reader
	off int64 // offset just past the last intact record
	buf []byte
}

// openSegReader opens a segment and verifies its header. A file shorter
// than the header returns errShortHeader (the crash-during-rotation
// shape); a full-length header with wrong bytes is ErrCorrupt.
func openSegReader(path string) (*segReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("wal: open segment %s: %w", path, err)
	}
	hdr := make([]byte, len(magic))
	if _, err := io.ReadFull(f, hdr); err != nil {
		f.Close()
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("%w: %s", errShortHeader, path)
		}
		return nil, fmt.Errorf("wal: read header %s: %w", path, err)
	}
	if string(hdr) != magic {
		f.Close()
		return nil, fmt.Errorf("%w: %s: bad segment header", ErrCorrupt, path)
	}
	return &segReader{f: f, br: bufio.NewReaderSize(f, readBufSize), off: int64(len(magic))}, nil
}

func (r *segReader) close() { r.f.Close() }

// size returns the segment file's byte length (for the interior-
// corruption check: a non-final segment must parse to its exact end).
func (r *segReader) size() (int64, error) {
	fi, err := r.f.Stat()
	if err != nil {
		return 0, fmt.Errorf("wal: stat segment: %w", err)
	}
	return fi.Size(), nil
}

// next returns the next intact record's payload (valid until the
// following call). ok is false at the end of the intact prefix — clean
// EOF, a torn record, or corrupt framing; the reader's offset stays at
// the last intact record, which is where tail truncation cuts. A real
// read I/O error is returned as err.
func (r *segReader) next() (payload []byte, ok bool, err error) {
	sz, err := binary.ReadUvarint(r.br)
	if err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, false, nil
		}
		var perr *fs.PathError
		if errors.As(err, &perr) {
			return nil, false, err
		}
		// Malformed varint (overflow): indistinguishable from a torn
		// length byte — end of the intact prefix.
		return nil, false, nil
	}
	if sz > maxRecBytes {
		return nil, false, nil
	}
	need := int(sz) + 4
	if cap(r.buf) < need {
		r.buf = make([]byte, need)
	}
	b := r.buf[:need]
	if _, err := io.ReadFull(r.br, b); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, false, nil
		}
		return nil, false, err
	}
	payload = b[:sz]
	crc := binary.LittleEndian.Uint32(b[sz:])
	if crc32.Checksum(payload, crcTable) != crc {
		return nil, false, nil
	}
	if _, err := decodeEdge(payload); err != nil {
		// CRC-valid but undecodable: scan and replay must agree on where
		// the intact prefix ends, so an unparseable record terminates it
		// here rather than failing later in replay.
		return nil, false, nil
	}
	r.off += int64(uvarintLen(sz)) + int64(need)
	return payload, true, nil
}

// uvarintLen returns the encoded byte length of v.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// scanSegment counts intact records in a segment and returns the count
// and the byte offset just past the last intact record (where a torn
// tail, if any, begins). The scan streams — memory use is independent
// of segment size.
func scanSegment(path string) (n int64, end int64, err error) {
	r, err := openSegReader(path)
	if err != nil {
		return 0, 0, err
	}
	defer r.close()
	for {
		_, ok, err := r.next()
		if err != nil {
			return 0, 0, fmt.Errorf("wal: scan %s: %w", path, err)
		}
		if !ok {
			return n, r.off, nil
		}
		n++
	}
}

// appendEdge encodes the replayable fields of an edge. The edge ID is
// deliberately excluded: IDs are assigned deterministically by the
// stream in arrival order, so replay regenerates them.
func appendEdge(b []byte, e graph.Edge) []byte {
	b = binary.AppendVarint(b, int64(e.From))
	b = binary.AppendVarint(b, int64(e.To))
	b = binary.AppendVarint(b, int64(e.FromLabel))
	b = binary.AppendVarint(b, int64(e.ToLabel))
	b = binary.AppendVarint(b, int64(e.EdgeLabel))
	b = binary.AppendVarint(b, int64(e.Time))
	return b
}

func decodeEdge(payload []byte) (graph.Edge, error) {
	var e graph.Edge
	rd := payload
	get := func() (int64, error) {
		v, n := binary.Varint(rd)
		if n <= 0 {
			return 0, fmt.Errorf("%w: short edge payload", ErrCorrupt)
		}
		rd = rd[n:]
		return v, nil
	}
	var err error
	var v int64
	if v, err = get(); err != nil {
		return e, err
	}
	e.From = graph.VertexID(v)
	if v, err = get(); err != nil {
		return e, err
	}
	e.To = graph.VertexID(v)
	if v, err = get(); err != nil {
		return e, err
	}
	e.FromLabel = graph.Label(v)
	if v, err = get(); err != nil {
		return e, err
	}
	e.ToLabel = graph.Label(v)
	if v, err = get(); err != nil {
		return e, err
	}
	e.EdgeLabel = graph.Label(v)
	if v, err = get(); err != nil {
		return e, err
	}
	e.Time = graph.Timestamp(v)
	if len(rd) != 0 {
		return e, fmt.Errorf("%w: trailing bytes in edge payload", ErrCorrupt)
	}
	return e, nil
}

// FirstSeq returns the LSN of the oldest record still retained in dir
// (0 for an empty or missing log). The value is derived from segment
// names, not contents — a torn segment still pins its named LSN, which
// Open then honours when repairing the directory. Front truncation
// advances it; consumers joining an existing log start here.
func FirstSeq(dir string) (int64, error) {
	segs, err := listSegments(dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return 0, nil
		}
		return 0, err
	}
	if len(segs) == 0 {
		return 0, nil
	}
	return segs[0].firstSeq, nil
}

// Replay streams records with LSN >= from, in order, to fn. It returns
// the next LSN after the last delivered record (i.e. the log's logical
// length). Replaying an empty log returns (from, nil) — a caller whose
// checkpoint is ahead of an empty log has nothing to replay and its
// cursor stands. A torn tail (or headerless newest segment) ends replay
// cleanly; interior corruption returns ErrCorrupt. fn may stop replay
// early by returning an error, which Replay propagates. Reads stream
// one record at a time, so replay memory is flat in segment size.
func Replay(dir string, from int64, fn func(seq int64, e graph.Edge) error) (int64, error) {
	segs, err := listSegments(dir)
	if err != nil {
		return 0, err
	}
	if len(segs) == 0 {
		if from > 0 {
			return from, nil
		}
		return 0, nil
	}
	seq := segs[0].firstSeq
	if from > seq {
		// Skip whole segments below from.
		for len(segs) > 1 && segs[1].firstSeq <= from {
			segs = segs[1:]
		}
		seq = segs[0].firstSeq
	}
	for si, s := range segs {
		last := si == len(segs)-1
		seq, err = replaySegment(dir, s, last, seq, from, fn)
		if err != nil {
			return seq, err
		}
	}
	return seq, nil
}

// replaySegment replays one segment starting at LSN seq, returning the
// LSN after its last intact record.
func replaySegment(dir string, s segInfo, last bool, seq, from int64, fn func(int64, graph.Edge) error) (int64, error) {
	r, err := openSegReader(filepath.Join(dir, s.name))
	if err != nil {
		if last && errors.Is(err, errShortHeader) {
			// Crash during rotation: the newest segment never got its
			// header and holds no records.
			return seq, nil
		}
		return seq, err
	}
	defer r.close()
	if seq != s.firstSeq {
		return seq, fmt.Errorf("%w: segment %s starts at %d, want %d (gap)", ErrCorrupt, s.name, s.firstSeq, seq)
	}
	for {
		payload, ok, err := r.next()
		if err != nil {
			return seq, fmt.Errorf("wal: replay %s: %w", s.name, err)
		}
		if !ok {
			if !last {
				size, serr := r.size()
				if serr != nil {
					return seq, serr
				}
				if r.off != size {
					return seq, fmt.Errorf("%w: %s at offset %d", ErrCorrupt, s.name, r.off)
				}
			}
			return seq, nil
		}
		if seq >= from {
			e, err := decodeEdge(payload)
			if err != nil {
				return seq, fmt.Errorf("%s seq %d: %w", s.name, seq, err)
			}
			e.ID = graph.EdgeID(seq)
			if err := fn(seq, e); err != nil {
				return seq, err
			}
		}
		seq++
	}
}
