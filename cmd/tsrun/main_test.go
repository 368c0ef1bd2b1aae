package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	"timingsubg"
)

// fixture writes the a→b→c chain query (first hop before the second)
// and a stream of alternating hops over timestamps [from, to] that
// completes a match on every second edge.
func fixture(t *testing.T, dir, name string, from, to int) (queryPath, streamPath string) {
	t.Helper()
	queryPath = filepath.Join(dir, "query.txt")
	if err := os.WriteFile(queryPath, []byte("v 0 a\nv 1 b\nv 2 c\ne 0 1 x\ne 1 2 y\no 0 < 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for ts := from; ts <= to; ts++ {
		hub := 100 + ts/2 // one b-vertex per (first hop, second hop) pair
		if ts%2 == 0 {
			fmt.Fprintf(&sb, "%d,%d,a,b,x,%d\n", ts, hub, ts)
		} else {
			fmt.Fprintf(&sb, "%d,%d,b,c,y,%d\n", hub, 1000+ts, ts)
		}
	}
	streamPath = filepath.Join(dir, name)
	if err := os.WriteFile(streamPath, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return queryPath, streamPath
}

// tsrun runs the command and returns its stdout.
func tsrun(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("tsrun %v: %v", args, err)
	}
	return out.String()
}

var matchesLine = regexp.MustCompile(`(?m)^matches: (\d+)  discardable filtered: \d+  partial matches held: \d+  space: \d+ KB$`)

// requireSummary checks the four summary lines every mode prints and
// returns the reported match count.
func requireSummary(t *testing.T, out string) string {
	t.Helper()
	for _, want := range []string{"query: 2 edges, decomposition k=1\n", "edges: 200  elapsed: ", "per-edge latency: "} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary lacks %q:\n%s", want, out)
		}
	}
	m := matchesLine.FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no matches line:\n%s", out)
	}
	if m[1] == "0" {
		t.Fatalf("fixture produced no matches:\n%s", out)
	}
	return m[1]
}

func TestRunModes(t *testing.T) {
	dir := t.TempDir()
	q, s1 := fixture(t, dir, "s1.csv", 0, 199)
	_, s2 := fixture(t, dir, "s2.csv", 200, 399)
	base := []string{"-query", q, "-window", "50", "-stream"}

	plain := tsrun(t, append(base, s1)...)
	want := requireSummary(t, plain)
	if strings.Contains(plain, "recovered:") || strings.Contains(plain, "join-order") {
		t.Fatalf("plain run printed a mode line:\n%s", plain)
	}

	adaptive := tsrun(t, append(base, s1, "-adaptive")...)
	if got := requireSummary(t, adaptive); got != want {
		t.Fatalf("adaptive matches %s, plain %s", got, want)
	}
	if !strings.Contains(adaptive, "join-order reoptimizations: ") {
		t.Fatalf("adaptive run lacks the reoptimization line:\n%s", adaptive)
	}

	state := filepath.Join(dir, "state")
	cold := tsrun(t, append(base, s1, "-durable", state)...)
	if got := requireSummary(t, cold); got != want {
		t.Fatalf("durable matches %s, plain %s", got, want)
	}
	if strings.Contains(cold, "recovered:") {
		t.Fatalf("cold durable start claims a recovery:\n%s", cold)
	}
	restart := tsrun(t, append(base, s2, "-durable", state)...)
	requireSummary(t, restart)
	if !strings.HasPrefix(restart, "recovered: "+want+" durable matches, 0 WAL edges replayed, window holds ") {
		t.Fatalf("restart did not report the recovered state first:\n%s", restart)
	}

	// Open composes durability with adaptivity, so tsrun does too.
	both := tsrun(t, append(base, s1, "-durable", filepath.Join(dir, "state2"), "-adaptive")...)
	if got := requireSummary(t, both); got != want {
		t.Fatalf("durable+adaptive matches %s, plain %s", got, want)
	}
	if !strings.Contains(both, "join-order reoptimizations: ") {
		t.Fatalf("durable+adaptive run lacks the reoptimization line:\n%s", both)
	}

	dump := tsrun(t, append(base, s1, "-state")...)
	requireSummary(t, dump)
	if !strings.Contains(dump, "decomposition k=1, storage items:\n") || !strings.Contains(dump, "matches="+want+"\n") {
		t.Fatalf("-state did not dump the engine state:\n%s", dump)
	}

	printed := tsrun(t, append(base, s1, "-print")...)
	if got := fmt.Sprint(strings.Count(printed, "match {")); got != want {
		t.Fatalf("-print wrote %s match lines, summary says %s", got, want)
	}
}

// TestRunRejectsWhatOpenRejects: tsrun has no compatibility table of
// its own — an unsupported flag combination fails with Open's error.
func TestRunRejectsWhatOpenRejects(t *testing.T) {
	dir := t.TempDir()
	q, s := fixture(t, dir, "s.csv", 0, 9)
	err := run([]string{"-query", q, "-stream", s, "-durable", filepath.Join(dir, "state"), "-count-window", "5"}, &bytes.Buffer{})
	if !errors.Is(err, timingsubg.ErrBadOptions) {
		t.Fatalf("-durable -count-window: %v, want ErrBadOptions", err)
	}
}

// metricsHook is run's stdout. When run announces its -metrics address
// the hook starts scraping it in a loop until stop closes, and holds run
// on that line until the first scrape has landed, so the rest of the
// run's feeding overlaps the scrapes.
type metricsHook struct {
	bytes.Buffer
	stop chan struct{}
	wg   sync.WaitGroup
	// Written by the scraper, read after wg.Wait.
	scrapes int
	err     error
}

func (h *metricsHook) Write(p []byte) (int, error) {
	if url, ok := strings.CutPrefix(string(p), "metrics: "); ok {
		first := make(chan struct{})
		h.wg.Add(1)
		go h.scrape(strings.TrimSpace(url), first)
		<-first
	}
	return h.Buffer.Write(p)
}

func (h *metricsHook) scrape(url string, first chan struct{}) {
	defer h.wg.Done()
	for {
		st, err := scrapeStats(url)
		if err == nil && st.K != 1 {
			err = fmt.Errorf("scraped k=%d, want the query's 1", st.K)
		}
		var gone *net.OpError
		switch {
		case errors.As(err, &gone) && first == nil:
			// Once run has fed everything it closes the listener.
			return
		case err != nil && h.err == nil:
			h.err = err
		case err == nil:
			h.scrapes++
		}
		if first != nil {
			close(first)
			first = nil
		}
		select {
		case <-h.stop:
			return
		default:
		}
	}
}

// scrapeStats GETs the -metrics address and decodes the body strictly as
// one Stats snapshot.
func scrapeStats(url string) (timingsubg.Stats, error) {
	var st timingsubg.Stats
	resp, err := http.Get(url)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	dec := json.NewDecoder(resp.Body)
	dec.DisallowUnknownFields()
	err = dec.Decode(&st)
	return st, err
}

// TestMetricsScrapedDuringRun: -metrics serves the engine's Stats as
// JSON, and scraping it while edges are fed is safe (run under -race).
func TestMetricsScrapedDuringRun(t *testing.T) {
	dir := t.TempDir()
	q, s := fixture(t, dir, "s.csv", 0, 19999)
	h := &metricsHook{stop: make(chan struct{})}
	err := run([]string{"-query", q, "-window", "50", "-metrics", "127.0.0.1:0", "-stream", s}, h)
	close(h.stop)
	h.wg.Wait()
	if err != nil {
		t.Fatalf("tsrun -metrics: %v", err)
	}
	if h.err != nil {
		t.Fatalf("scrape: %v (%d scrapes ok)", h.err, h.scrapes)
	}
	if h.scrapes == 0 {
		t.Fatalf("no scrape landed; output:\n%s", h.String())
	}
}
