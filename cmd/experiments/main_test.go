package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestUnknownFigureFails: every name -fig lists must be known, so a
// typo next to a valid figure is an error naming it, not a silent skip.
func TestUnknownFigureFails(t *testing.T) {
	for _, list := range []string{"99", "15,99", "cost, nope"} {
		var stdout, stderr bytes.Buffer
		err := run([]string{"-fig", list, "-quick"}, &stdout, &stderr)
		if err == nil {
			t.Fatalf("-fig %s: want an error", list)
		}
		bad := strings.TrimSpace(list[strings.LastIndex(list, ",")+1:])
		if !strings.Contains(err.Error(), bad) {
			t.Errorf("-fig %s: error %q does not name %q", list, err, bad)
		}
		if stdout.Len() != 0 {
			t.Errorf("-fig %s: printed figures before rejecting the list:\n%s", list, stdout.String())
		}
	}
}

// TestRecordedFigureFails: Figs. 19/20 are a recorded result; asking
// for one points at where the record is kept.
func TestRecordedFigureFails(t *testing.T) {
	for _, name := range []string{"19", "20"} {
		var stdout, stderr bytes.Buffer
		err := run([]string{"-fig", name}, &stdout, &stderr)
		if err == nil {
			t.Fatalf("-fig %s: want an error", name)
		}
		for _, want := range []string{"figure " + name, "DESIGN.md §2", "56be127"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("-fig %s: error %q does not mention %q", name, err, want)
			}
		}
	}
}

func TestCostQuickRuns(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-fig", "cost", "-quick"}, &stdout, &stderr); err != nil {
		t.Fatalf("-fig cost -quick: %v (stderr: %s)", err, stderr.String())
	}
	if !strings.Contains(stdout.String(), "Theorem 7") {
		t.Errorf("cost table missing from output:\n%s", stdout.String())
	}
}
