package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"timingsubg/client"
)

// The load generator holds exactly two connections to the server: the
// feeder's, on which POSTs go out back to back (closed loop) or on a
// schedule (open loop), and the subscriber's SSE stream.

// feeder POSTs pre-encoded NDJSON bodies over one connection. It writes
// HTTP/1.1 itself rather than through net/http, because the open loop
// must be able to send a request while earlier ones are unanswered, on
// the same connection: net/http's client never pipelines.
type feeder struct {
	conn net.Conn
	r    *bufio.Reader
	head []byte // request line and headers, up to the Content-Length value
	// edges acknowledged, lines rejected, edges of non-200 POSTs; between
	// send and the matching recv they belong to whoever calls recv
	accepted, rejected, refused int64
}

func newFeeder(srv *server) (*feeder, error) {
	conn, err := net.Dial("tcp", srv.addr)
	if err != nil {
		return nil, err
	}
	head := "POST /ingest HTTP/1.1\r\nHost: " + srv.addr + "\r\nAuthorization: Bearer " + tenantKey +
		"\r\nContent-Type: application/x-ndjson\r\nContent-Length: "
	return &feeder{conn: conn, r: bufio.NewReader(conn), head: []byte(head)}, nil
}

func (f *feeder) close() { f.conn.Close() }

// send writes one request and does not wait for its answer.
func (f *feeder) send(body []byte) error {
	head := strconv.AppendInt(f.head[:len(f.head):len(f.head)], int64(len(body)), 10)
	bufs := net.Buffers{append(head, "\r\n\r\n"...), body}
	_, err := bufs.WriteTo(f.conn)
	return err
}

// recv reads the answer to the oldest unanswered request.
func (f *feeder) recv() error {
	resp, err := http.ReadResponse(f.r, nil)
	if err != nil {
		f.refused += batchEdges
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		f.refused += batchEdges
		_, err := io.Copy(io.Discard, resp.Body)
		return err
	}
	var res client.IngestResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		f.refused += batchEdges
		return err
	}
	f.accepted += int64(res.Accepted)
	f.rejected += int64(res.Rejected)
	// Leave the reader at the next response's first byte.
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}

// post sends one batch and waits for its answer.
func (f *feeder) post(body []byte) error {
	if err := f.send(body); err != nil {
		return err
	}
	return f.recv()
}

// spinBefore is how long before a due time the open loop stops sleeping
// and spins: about the p99 by which nanosleep overshoots on this machine.
const spinBefore = 250 * time.Microsecond

// closedSlices is how many equal parts the closed loop is measured in.
const closedSlices = 20

// closedLoop sends bodies one after another, the next only after the
// previous answer, and calls mark before the first and after each of
// closedSlices equal (±1 batch) parts.
func (f *feeder) closedLoop(bodies [][]byte, mark func() error) error {
	if err := mark(); err != nil {
		return err
	}
	for i, b := range bodies {
		if err := f.post(b); err != nil {
			return err
		}
		if (i+1)*closedSlices/len(bodies) > i*closedSlices/len(bodies) {
			if err := mark(); err != nil {
				return err
			}
		}
	}
	return nil
}

// openLoop sends batch i when it is due — start + i·period — whatever
// the server is doing: requests are pipelined on the one connection and
// a second goroutine reads the answers, so a slow answer holds up
// nothing here and the backlog it causes queues at the server, where
// latency from the due time counts it. It returns each batch's due time
// and how late its send began, which is the generator's own lateness.
func (f *feeder) openLoop(bodies [][]byte, period time.Duration) (due []time.Time, late []time.Duration, err error) {
	due = make([]time.Time, len(bodies))
	late = make([]time.Duration, len(bodies))
	answers := make(chan error, 1)
	go func() {
		for range bodies {
			if err := f.recv(); err != nil {
				answers <- err
				return
			}
		}
		answers <- nil
	}()
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start := time.Now().Add(period)
	for i, b := range bodies {
		due[i] = start.Add(time.Duration(i) * period)
		// Sleep to just before the due time, then spin the rest. The
		// sleep is nanosleep(2) on this goroutine's own thread: the Go
		// runtime parks idle threads in epoll_wait, whose timeout counts
		// whole milliseconds, so time.Sleep wakes up to a millisecond late
		// — half a period at these rates.
		for d := time.Until(due[i]) - spinBefore; d > 0; d = time.Until(due[i]) - spinBefore {
			ts := syscall.NsecToTimespec(int64(d))
			syscall.Nanosleep(&ts, nil) // a signal ends it early: go round again
		}
		for time.Now().Before(due[i]) {
		}
		late[i] = time.Since(due[i])
		if err := f.send(b); err != nil {
			// Closing the connection ends the reader, whatever it waits on.
			f.conn.Close()
			<-answers
			return nil, nil, err
		}
	}
	return due, late, <-answers
}

// subscriber reads the SSE stream. It keeps no events: each match is
// folded into its query's multiset, its sequence number is checked for
// gaps, and a canary's arrival time is filed under its batch.
type subscriber struct {
	mu       sync.Mutex
	queries  map[string]*delivered
	seqGaps  int64
	canaryAt []time.Time // by batch; zero = not seen
	events   atomic.Int64
	bytes    atomic.Int64
	err      error
	cancel   context.CancelFunc
	done     chan struct{}
}

// delivered is what the stream has carried for one query so far.
type delivered struct {
	set     multiset
	lastSeq int64
}

// subscribe opens the stream (every query of the tenant, current and
// future) and returns once the server has confirmed it.
func subscribe(srv *server, batches int) (*subscriber, error) {
	ctx, cancel := context.WithCancel(context.Background())
	req, err := srv.request(ctx, http.MethodGet, "/subscribe", tenantKey, nil)
	if err != nil {
		cancel()
		return nil, err
	}
	tr := &http.Transport{DisableCompression: true}
	resp, err := (&http.Client{Transport: tr}).Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("GET /subscribe: %d", resp.StatusCode)
	}
	s := &subscriber{
		queries:  map[string]*delivered{},
		canaryAt: make([]time.Time, batches),
		cancel:   cancel,
		done:     make(chan struct{}),
	}
	r := bufio.NewReaderSize(resp.Body, 1<<20)
	// The server writes a ": subscribed" comment once the subscription
	// is attached; nothing fed after it is read can be missed.
	if line, err := r.ReadSlice('\n'); err != nil || !bytes.HasPrefix(line, []byte(": subscribed")) {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("GET /subscribe: no confirmation (%q, %v)", line, err)
	}
	go func() {
		defer close(s.done)
		defer resp.Body.Close()
		s.read(r)
	}()
	return s, nil
}

var (
	dataPrefix = []byte("data: ")
	keyQuery   = []byte(`"query":"`)
	keySeq     = []byte(`"seq":`)
	keyFrom    = []byte(`"from":`)
	keyTime    = []byte(`"time":`)
)

// atoi reads a decimal integer at the head of b.
func atoi(b []byte) (n int64, rest []byte) {
	i := 0
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	for ; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
		n = n*10 + int64(b[i]-'0')
	}
	if neg {
		n = -n
	}
	return n, b[i:]
}

// read folds events until the stream ends. Events are the server's own
// compact JSON, so fields are picked out by key rather than by a full
// decode: the subscriber shares two cores with the server it measures.
func (s *subscriber) read(r *bufio.Reader) {
	for {
		line, err := r.ReadSlice('\n')
		if err != nil {
			if err != io.EOF && err != context.Canceled {
				s.mu.Lock()
				s.err = err
				s.mu.Unlock()
			}
			return
		}
		s.bytes.Add(int64(len(line)))
		if !bytes.HasPrefix(line, dataPrefix) {
			continue
		}
		now := time.Now()
		ev := line[len(dataPrefix):]
		i := bytes.Index(ev, keyQuery)
		if i < 0 {
			continue
		}
		ev = ev[i+len(keyQuery):]
		j := bytes.IndexByte(ev, '"')
		name := ev[:j]
		ev = ev[j:]
		var seq int64
		if i = bytes.Index(ev, keySeq); i >= 0 {
			seq, ev = atoi(ev[i+len(keySeq):])
		}
		first := int64(-1)
		h := uint64(fnvOffset)
		for {
			i = bytes.Index(ev, keyTime)
			if i < 0 {
				break
			}
			if first < 0 {
				if k := bytes.Index(ev[:i], keyFrom); k >= 0 {
					first, _ = atoi(ev[k+len(keyFrom):])
				}
			}
			var t int64
			t, ev = atoi(ev[i+len(keyTime):])
			h = hashTime(h, t)
		}
		s.mu.Lock()
		q := s.queries[string(name)]
		if q == nil {
			q = &delivered{}
			s.queries[string(name)] = q
		}
		q.set.add(h)
		if seq != q.lastSeq+1 {
			s.seqGaps++
		}
		q.lastSeq = seq
		if string(name) == canaryName {
			if b := int((first - canaryBase) / 2); b >= 0 && b < len(s.canaryAt) && s.canaryAt[b].IsZero() {
				s.canaryAt[b] = now
			}
		}
		s.mu.Unlock()
		s.events.Add(1)
	}
}

// waitFor blocks until n events have arrived, or no event has for
// idle, and reports whether all n came.
func (s *subscriber) waitFor(n int64, idle time.Duration) bool {
	last, lastAt := s.events.Load(), time.Now()
	for {
		got := s.events.Load()
		if got >= n {
			return true
		}
		if got != last {
			last, lastAt = got, time.Now()
		} else if time.Since(lastAt) > idle {
			return false
		}
		select {
		case <-s.done:
			return s.events.Load() >= n
		case <-time.After(time.Millisecond):
		}
	}
}

// close ends the stream and waits for the reader to finish.
func (s *subscriber) close() {
	s.cancel()
	<-s.done
}
