package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Client talks to one tsserved server.
type Client struct {
	base string
	hc   *http.Client
	key  string
}

// New returns a client for the server at baseURL (e.g.
// "http://127.0.0.1:8080"). hc may be nil to use http.DefaultClient;
// pass a dedicated client to tune timeouts or transports. Note that a
// client-level timeout also cuts off Subscribe streams — use per-call
// contexts for deadlines instead when subscribing.
func New(baseURL string, hc *http.Client) *Client {
	if hc == nil {
		hc = http.DefaultClient
	}
	return &Client{base: strings.TrimRight(baseURL, "/"), hc: hc}
}

// WithAPIKey returns a copy of the client that authenticates every
// request with the given API key (Authorization: Bearer). On a
// multi-tenant server the key selects the tenant namespace all calls
// operate in; the admin key addresses the raw roster instead. An
// empty key returns the receiver unchanged.
func (c *Client) WithAPIKey(key string) *Client {
	if key == "" {
		return c
	}
	cc := *c
	cc.key = key
	return &cc
}

// authorize attaches the client's API key, if any.
func (c *Client) authorize(req *http.Request) {
	if c.key != "" {
		req.Header.Set("Authorization", "Bearer "+c.key)
	}
}

// APIError is a non-2xx server response: the HTTP status code plus
// the server's message body. The reconnect logic treats it as
// terminal (the server answered; retrying won't change its mind),
// unlike transport errors, which are retried.
type APIError struct {
	StatusCode int
	Status     string
	Message    string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("client: %s: %s", e.Status, e.Message)
}

// ErrRateLimited is the typed form of a 429 admission rejection: the
// server refused the request before doing any work on it. RetryAfter
// carries the server's Retry-After hint (zero when the rejection was
// a hard quota, not a rate — retrying later won't help until capacity
// is released). It unwraps to *APIError, so errors.As against either
// type matches; check for *ErrRateLimited first when both matter.
type ErrRateLimited struct {
	APIError
	RetryAfter time.Duration
}

func (e *ErrRateLimited) Error() string {
	if e.RetryAfter > 0 {
		return fmt.Sprintf("client: rate limited (retry after %v): %s", e.RetryAfter, e.Message)
	}
	return fmt.Sprintf("client: rate limited: %s", e.Message)
}

// Unwrap exposes the embedded APIError as a chain link, so existing
// errors.As(err, &apiErr) call sites keep matching 429s.
func (e *ErrRateLimited) Unwrap() error { return &e.APIError }

// apiError turns a non-2xx response into an *APIError carrying the
// status and the server's message body — or an *ErrRateLimited for
// 429s, with the Retry-After header parsed into a duration.
func apiError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	msg := strings.TrimSpace(string(body))
	if msg == "" {
		msg = resp.Status
	}
	ae := APIError{StatusCode: resp.StatusCode, Status: resp.Status, Message: msg}
	if resp.StatusCode == http.StatusTooManyRequests {
		rl := &ErrRateLimited{APIError: ae}
		if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
			rl.RetryAfter = time.Duration(secs) * time.Second
		}
		return rl
	}
	return &ae
}

func (c *Client) doJSON(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		buf, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("client: encode request: %w", err)
		}
		body = bytes.NewReader(buf)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	c.authorize(req)
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return apiError(resp)
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// AddQuery registers a continuous query. The server starts matching it
// against all subsequently ingested edges.
func (c *Client) AddQuery(ctx context.Context, q QueryRequest) error {
	return c.doJSON(ctx, http.MethodPost, "/queries", q, nil)
}

// RemoveQuery retires the named query; its subscribers' streams end.
func (c *Client) RemoveQuery(ctx context.Context, name string) error {
	return c.doJSON(ctx, http.MethodDelete, "/queries/"+url.PathEscape(name), nil, nil)
}

// Queries lists the live queries.
func (c *Client) Queries(ctx context.Context) (QueryList, error) {
	var out QueryList
	err := c.doJSON(ctx, http.MethodGet, "/queries", nil, &out)
	return out, err
}

// Ingest feeds a batch of edges, encoded as NDJSON. The batch lands
// atomically in arrival order; individually bad edges are rejected and
// reported in the result without failing the rest of the batch.
func (c *Client) Ingest(ctx context.Context, edges []Edge) (IngestResult, error) {
	var out IngestResult
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, e := range edges {
		if err := enc.Encode(e); err != nil {
			return out, fmt.Errorf("client: encode edge: %w", err)
		}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/ingest", &buf)
	if err != nil {
		return out, err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	c.authorize(req)
	resp, err := c.hc.Do(req)
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return out, apiError(resp)
	}
	err = json.NewDecoder(resp.Body).Decode(&out)
	return out, err
}

// Stats samples the server's live counters: the whole view, for the
// admin key or an untenanted server. A tenant key reads TenantStats.
func (c *Client) Stats(ctx context.Context) (ServerStats, error) {
	var out ServerStats
	err := c.doJSON(ctx, http.MethodGet, "/stats", nil, &out)
	return out, err
}

// TenantStats samples the calling tenant's slice of the server's
// counters (GET /stats with a tenant key).
func (c *Client) TenantStats(ctx context.Context) (TenantStats, error) {
	var out TenantStats
	err := c.doJSON(ctx, http.MethodGet, "/stats", nil, &out)
	return out, err
}

// EngineStats samples the unified engine snapshot, with per-query
// snapshots under Queries: the fleet.stats part of Stats.
func (c *Client) EngineStats(ctx context.Context) (EngineStats, error) {
	st, err := c.Stats(ctx)
	return st.Fleet, err
}

// Health probes the server's liveness endpoint.
func (c *Client) Health(ctx context.Context) error {
	var h Health
	if err := c.doJSON(ctx, http.MethodGet, "/healthz", nil, &h); err != nil {
		return err
	}
	if h.Status != "ok" {
		return fmt.Errorf("client: unhealthy: %q", h.Status)
	}
	return nil
}

// Ready probes the server's readiness endpoint. Unlike Health, which
// answers as soon as the process is listening, Ready fails (503) while
// a durable server is still replaying its log at boot — the signal a
// load balancer or orchestrator should gate traffic on.
func (c *Client) Ready(ctx context.Context) error {
	var h Health
	if err := c.doJSON(ctx, http.MethodGet, "/readyz", nil, &h); err != nil {
		return err
	}
	if h.Status != "ready" {
		return fmt.Errorf("client: not ready: %q", h.Status)
	}
	return nil
}

// CreateTenant registers a tenant (admin API: the client must carry
// the server's admin key). The returned snapshot never echoes keys.
func (c *Client) CreateTenant(ctx context.Context, spec TenantSpec) (TenantInfo, error) {
	var out TenantInfo
	err := c.doJSON(ctx, http.MethodPost, "/tenants", spec, &out)
	return out, err
}

// Tenants lists every tenant with live usage (admin API).
func (c *Client) Tenants(ctx context.Context) (TenantList, error) {
	var out TenantList
	err := c.doJSON(ctx, http.MethodGet, "/tenants", nil, &out)
	return out, err
}

// SubscribeOptions configures Client.SubscribeOpts.
type SubscribeOptions struct {
	// Queries filters the stream by query name. Empty subscribes to
	// every query, including queries registered after the stream opens.
	Queries []string
	// LastEventID resumes delivery after a previous stream's final
	// event id (see Subscription.LastEventID): events the server still
	// retains are re-sent, already-seen ones are skipped by sequence
	// number.
	LastEventID string
	// Reconnect re-establishes the stream automatically when the
	// connection drops or the server restarts, resuming from the last
	// event id seen, with capped exponential backoff. The stream then
	// ends only on ctx cancellation, Close, or a definitive server
	// answer (e.g. 404 after the queries were removed).
	Reconnect bool
}

// Subscription is a live SSE match stream. Receive from Events until
// it closes; then Err reports why the stream ended (nil after a
// server-side close, e.g. the query was removed).
type Subscription struct {
	// Events delivers matches in the order the server reported them.
	Events <-chan MatchEvent

	cancel context.CancelFunc
	mu     sync.Mutex
	err    error
	lastID string
	done   chan struct{}
}

// Err returns the terminal error of the stream, if any. Valid after
// Events closes.
func (s *Subscription) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// LastEventID returns the most recent event id received — a complete
// resume token: pass it as SubscribeOptions.LastEventID on a later
// subscribe to skip everything this stream already delivered.
func (s *Subscription) LastEventID() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastID
}

func (s *Subscription) setLastID(id string) {
	s.mu.Lock()
	s.lastID = id
	s.mu.Unlock()
}

func (s *Subscription) setErr(err error) {
	s.mu.Lock()
	s.err = err
	s.mu.Unlock()
}

// Close terminates the subscription and releases its connection. It is
// safe to call more than once.
func (s *Subscription) Close() {
	s.cancel()
	<-s.done
}

// Subscribe opens an SSE stream of matches for the named query. The
// stream ends when ctx is cancelled, Close is called, the query is
// removed on the server, or the connection drops. See SubscribeOpts
// for multi-query filters, resumption and automatic reconnect.
func (c *Client) Subscribe(ctx context.Context, query string) (*Subscription, error) {
	return c.SubscribeOpts(ctx, SubscribeOptions{Queries: []string{query}})
}

// SubscribeOpts opens an SSE stream of matches for the queries
// selected by opts. The initial connection is made synchronously (an
// unknown query fails here with a 404 *APIError); with Reconnect set,
// later drops are re-established automatically, resuming from the
// last event id seen.
func (c *Client) SubscribeOpts(ctx context.Context, opts SubscribeOptions) (*Subscription, error) {
	ctx, cancel := context.WithCancel(ctx)
	resp, err := c.openStream(ctx, opts.Queries, opts.LastEventID)
	if err != nil {
		cancel()
		return nil, err
	}
	events := make(chan MatchEvent, 64)
	sub := &Subscription{Events: events, cancel: cancel, lastID: opts.LastEventID, done: make(chan struct{})}
	go func() {
		defer close(sub.done)
		defer close(events)
		for {
			err := sub.consume(ctx, resp.Body, events)
			resp.Body.Close()
			if ctx.Err() != nil {
				return // cancelled: a clean end, whatever the stream said
			}
			if !opts.Reconnect {
				if err != nil {
					sub.setErr(err)
				}
				return
			}
			// Reconnect-and-resume: transport errors and clean
			// server-side closes are retried with backoff; a definitive
			// HTTP error (the server answered) is terminal.
			backoff := 50 * time.Millisecond
			for {
				select {
				case <-ctx.Done():
					return
				case <-time.After(backoff):
				}
				next, rerr := c.openStream(ctx, opts.Queries, sub.LastEventID())
				if rerr == nil {
					resp = next
					break
				}
				if ctx.Err() != nil {
					return
				}
				// A 429 is the server's admission control speaking, not a
				// verdict on the subscription: honor Retry-After and keep
				// trying. (Checked before the *APIError case it unwraps to.)
				var limited *ErrRateLimited
				if errors.As(rerr, &limited) {
					if backoff *= 2; backoff > time.Second {
						backoff = time.Second
					}
					if limited.RetryAfter > backoff {
						backoff = limited.RetryAfter
					}
					continue
				}
				var apiErr *APIError
				if errors.As(rerr, &apiErr) {
					sub.setErr(rerr)
					return
				}
				if backoff *= 2; backoff > time.Second {
					backoff = time.Second
				}
			}
		}
	}()
	return sub, nil
}

// openStream performs one GET /subscribe, returning the live response
// or the error that definitively ended the attempt. Names travel as
// repeated verbatim ?query= parameters (not the comma-separated
// ?queries= convenience), so a query name containing a comma is never
// mis-split server-side.
func (c *Client) openStream(ctx context.Context, queries []string, lastID string) (*http.Response, error) {
	u := c.base + "/subscribe"
	if len(queries) > 0 {
		vals := url.Values{"query": queries}
		u += "?" + vals.Encode()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Accept", "text/event-stream")
	if lastID != "" {
		req.Header.Set("Last-Event-ID", lastID)
	}
	c.authorize(req)
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		err := apiError(resp)
		resp.Body.Close()
		return nil, err
	}
	return resp, nil
}

// consume parses one SSE connection, forwarding match events and
// tracking the resume cursor. A clean server-side EOF returns nil.
func (s *Subscription) consume(ctx context.Context, body io.Reader, events chan<- MatchEvent) error {
	err := readSSE(body, func(id, event string, data []byte) error {
		if event != "match" {
			return nil // ignore heartbeats and unknown event types
		}
		var m MatchEvent
		if err := json.Unmarshal(data, &m); err != nil {
			return fmt.Errorf("client: bad match event: %w", err)
		}
		select {
		case events <- m:
		case <-ctx.Done():
			return ctx.Err()
		}
		if id != "" {
			// Advance the cursor only after the event is handed over, so
			// a resume never skips an event the consumer hasn't seen.
			s.setLastID(id)
		}
		return nil
	})
	if err != nil && ctx.Err() != nil {
		return nil
	}
	return err
}

// readSSE parses a Server-Sent-Events stream, invoking fn per event
// with the event's id (the last id: line seen, per the SSE spec). A
// clean EOF returns nil.
func readSSE(r io.Reader, fn func(id, event string, data []byte) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	id, event := "", ""
	var data []byte
	flush := func() error {
		if len(data) == 0 {
			event = ""
			return nil
		}
		err := fn(id, event, data)
		event, data = "", nil
		return err
	}
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if err := flush(); err != nil {
				return err
			}
		case strings.HasPrefix(line, ":"):
			// comment / heartbeat
		case strings.HasPrefix(line, "id:"):
			id = strings.TrimSpace(strings.TrimPrefix(line, "id:"))
		case strings.HasPrefix(line, "event:"):
			event = strings.TrimSpace(strings.TrimPrefix(line, "event:"))
		case strings.HasPrefix(line, "data:"):
			if len(data) > 0 {
				data = append(data, '\n')
			}
			data = append(data, strings.TrimPrefix(strings.TrimPrefix(line, "data:"), " ")...)
		}
	}
	if err := sc.Err(); err != nil && err != io.ErrUnexpectedEOF {
		return err
	}
	return flush()
}
