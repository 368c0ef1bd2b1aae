package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
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
