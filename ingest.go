package timingsubg

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"timingsubg/internal/graph"
	"timingsubg/internal/stats"
	"timingsubg/internal/wal"
)

// ingest is the one feed pipeline, embedded by fleetEngine (a
// single-query engine is a fleet of one). The paper's model has one
// ingest rule — edges arrive in strictly increasing timestamp order and
// each arrival is one transaction — and feed implements it once, in
// four stages:
//
//	validate → log → execute → account
//
// Everything a fleet composition varies is wiring fixed at open: the
// gate (which side of the roster lock a feed holds), the log (nil when
// in-memory), the executor (how validated, logged edges reach the
// members) and the checkpoint the cadence fires. Feed and FeedBatch
// are thin wrappers over feed; Feed is a batch of one.
type ingest struct {
	// gate is held across validate → log → execute, so a roster change
	// or checkpoint never observes a half-applied feed: the roster lock,
	// exclusive when the executor runs inline, the read side when it
	// fans out to shards that take their own locks.
	gate sync.Locker
	// exec is the execute stage, the pipeline's only pluggable one: it
	// evaluates a validated, logged batch and returns how many leading
	// edges it completed (short only on a member feed error, which
	// validation makes unreachable). start is the feed's entry time, for
	// arrival stamping; zero when metrics are off.
	exec func(batch []Edge, start time.Time) (int, error)
	// checkpoint forces a checkpoint; the account stage calls it every
	// dur.CheckpointEvery fed edges, outside the gate.
	checkpoint func() error

	// obs is the observability wiring (nil = metrics off), shared with
	// every member.
	obs *obs
	dur *Durability // nil = in-memory; normalized copy otherwise
	log *wal.Log    // nil = in-memory

	// clock is the boundary clock every feed is validated against:
	// the newest timestamp accepted, across restarts in durable mode.
	clock atomic.Int64
	// fed counts edges accepted by this pipeline.
	fed       atomic.Int64
	walSeq    atomic.Int64 // mirror of log.Seq(), so Stats never touches the log
	sinceCkpt atomic.Int64
	closed    atomic.Bool

	// one is Feed's batch-of-one scratch. Feeder-owned: feeds are
	// serialized by the Engine contract.
	one [1]Edge
}

// The pipeline's two entry shapes, as SlowOp.Op reports them.
const (
	opFeed      = "feed"
	opFeedBatch = "feed_batch"
)

// openLog opens dur's write-ahead log as the pipeline's log stage.
func (in *ingest) openLog(dur Durability) error {
	if dur.Dir == "" {
		return errors.Join(ErrBadOptions, errors.New("persistent mode requires Dir"))
	}
	if dur.CheckpointEvery <= 0 {
		dur.CheckpointEvery = 4096
	}
	var pipe *stats.Pipeline
	if in.obs != nil {
		pipe = in.obs.pipe
	}
	log, err := wal.Open(dur.Dir, wal.Options{
		SegmentBytes:    dur.SegmentBytes,
		SyncEvery:       dur.SyncEvery,
		SyncInterval:    dur.SyncInterval,
		OpenFile:        dur.openFile,
		SyncHist:        pipeSync(pipe),
		GroupCommitHist: pipeGroupCommit(pipe),
	})
	if err != nil {
		return err
	}
	in.dur, in.log = &dur, log
	return nil
}

// feed runs one batch through the pipeline and returns the ID of its
// first edge (the WAL sequence number in durable mode, the arrival
// index otherwise), how many leading edges were fed, and the first
// error. op is opFeed for Feed's batch of one, whose error carries no
// batch index.
func (in *ingest) feed(batch []Edge, op string) (EdgeID, int, error) {
	// Validate: closed, then timestamp order against the boundary clock.
	// Both precede the log, so an out-of-order edge can never poison the
	// WAL (replay requires a monotone record sequence), and precede the
	// executor entirely, so a rejected edge touches no member — shards
	// advance concurrently, which makes "stop at the bad edge"
	// enforceable only before fan-out, not during it.
	o := in.obs
	var start time.Time
	if o != nil {
		start = time.Now()
	}
	in.gate.Lock()
	if in.closed.Load() { // checked under the gate: Close may have won it
		in.gate.Unlock()
		return 0, 0, ErrClosed
	}
	n, err := monotonePrefix(batch, Timestamp(in.clock.Load()))
	if err != nil {
		err = edgeError(op, n, err)
	}

	// Log: one buffered write per segment chunk and at most one fsync —
	// the batch is the durability unit. On a WAL failure the executor
	// is handed exactly the records that were durably appended: engine
	// state must never diverge from the log (a logged-but-unfed edge
	// would leave the boundary clock behind the log tail and let a
	// later feed append non-monotonically).
	first := EdgeID(in.fed.Load())
	var walD time.Duration
	if in.log != nil && n > 0 {
		var t time.Time
		if o != nil {
			t = time.Now()
		}
		seq, appended, werr := in.log.AppendBatch(batch[:n])
		if o != nil {
			walD = time.Since(t)
			o.pipe.WALAppend.Observe(walD)
		}
		if werr != nil {
			n, err = appended, werr
		}
		in.walSeq.Add(int64(appended))
		first = EdgeID(seq)
	}

	// Execute, then advance the boundary clock past what was evaluated.
	if n > 0 {
		done, xerr := in.exec(batch[:n], start)
		if xerr != nil {
			n, err = done, edgeError(op, done, xerr)
		}
		if n > 0 {
			in.clock.Store(int64(batch[n-1].Time))
		}
	}
	in.gate.Unlock()

	// Account, outside the gate (the checkpoint takes it itself).
	if o != nil {
		o.slowFeed(op, n, start, walD)
	}
	if n == 0 {
		return 0, 0, err
	}
	in.fed.Add(int64(n))
	if in.dur != nil && in.sinceCkpt.Add(int64(n)) >= int64(in.dur.CheckpointEvery) {
		if cerr := in.checkpoint(); cerr != nil {
			return first, n, cerr
		}
	}
	return first, n, err
}

// runInline is the inline executor: step evaluates one edge, in order,
// on the feeder goroutine — a sequential fleet's member fan-out. Because edges run one at a time, each gets
// its own arrival stamp and ingest observation, at one monotonic clock
// read per edge: an iteration's end time is the next one's arrival
// stamp, derived from the feed's entry time plus elapsed time. (The
// sharded executor, fleetEngine.fanOut, stamps once per batch instead.)
func runInline(o *obs, batch []Edge, start time.Time, step func(Edge) error) (int, error) {
	prev := start
	for i := range batch {
		if o != nil {
			o.arrival.Store(prev.UnixNano())
		}
		if err := step(batch[i]); err != nil {
			return i, err
		}
		if o != nil {
			d := time.Since(prev)
			o.pipe.Ingest.Observe(d)
			prev = prev.Add(d)
		}
	}
	return len(batch), nil
}

// checkpointLog is the log's side of a checkpoint: sync the WAL, have
// save write every engine's checkpoint at the synced LSN, then declare
// that LSN the truncation gate and reclaim the segments below it — so
// the on-disk log stays bounded by the records no checkpoint covers
// plus the open segment.
func (in *ingest) checkpointLog(save func(next int64) error) error {
	in.sinceCkpt.Store(0)
	if err := in.log.Sync(); err != nil {
		return err
	}
	next := in.log.Seq()
	if err := save(next); err != nil {
		return err
	}
	in.log.SetCheckpointLSN(next)
	return in.log.TruncateFront(next)
}

// closeLog ends a durable engine's log stage: a final checkpoint, then
// the WAL is closed (also when the checkpoint failed). No-op in memory.
func (in *ingest) closeLog(checkpoint func() error) error {
	if in.log == nil {
		return nil
	}
	if err := checkpoint(); err != nil {
		in.log.Close()
		return err
	}
	return in.log.Close()
}

// feedEdge is Feed: a batch of one.
func (in *ingest) feedEdge(e Edge) (EdgeID, error) {
	in.one[0] = e
	id, _, err := in.feed(in.one[:], opFeed)
	return id, err
}

// edgeError locates a per-edge error (validation or member feed) by its
// batch position. Feed's batch of one carries no index: its callers —
// Run — index the stream themselves.
func edgeError(op string, i int, err error) error {
	if op == opFeed {
		return fmt.Errorf("timingsubg: %w", err)
	}
	return fmt.Errorf("timingsubg: edge %d: %w", i, err)
}

// monotonePrefix returns the length of the longest strictly-increasing
// timestamp prefix of batch after last, and an error describing the
// first violation (nil when the whole batch is monotone).
func monotonePrefix(batch []Edge, last Timestamp) (int, error) {
	for i, e := range batch {
		if e.Time <= last {
			return i, fmt.Errorf("%w: got %d after %d", graph.ErrOutOfOrder, e.Time, last)
		}
		last = e.Time
	}
	return len(batch), nil
}
