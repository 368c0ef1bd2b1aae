package monitor

import (
	"fmt"
	"sort"
	"strings"

	"timingsubg/internal/stats"
)

// PromWriter renders metrics in the Prometheus text exposition format
// (version 0.0.4). Families appear in first-use order with one # TYPE
// line each, so a caller must emit all of a family's samples together
// (family outer, label inner) for them to form the one group the format
// requires;
// histograms are rendered from stats.Snapshot bucket counts as
// seconds-valued cumulative buckets, so `_count` always equals the
// +Inf bucket and `_sum`/`_count` stay mutually consistent.
//
// A PromWriter is single-use and not safe for concurrent use: build
// one per scrape, emit, and discard.
type PromWriter struct {
	b     strings.Builder
	typed map[string]bool
}

// NewPromWriter returns an empty writer.
func NewPromWriter() *PromWriter {
	return &PromWriter{typed: make(map[string]bool)}
}

// ContentType is the HTTP Content-Type of the text exposition format.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// Counter emits one counter sample. name is sanitized; labels may be
// nil.
func (w *PromWriter) Counter(name string, labels map[string]string, v float64) {
	name = sanitizeName(name)
	w.typeLine(name, "counter")
	w.line(name, labels, "", "", v)
}

// Gauge emits one gauge sample.
func (w *PromWriter) Gauge(name string, labels map[string]string, v float64) {
	name = sanitizeName(name)
	w.typeLine(name, "gauge")
	w.line(name, labels, "", "", v)
}

// Histogram emits one histogram series from a latency snapshot:
// `name_bucket{...,le="..."}` on the snapshot's fixed upper-bound
// ladder plus the +Inf bucket, then `name_sum` and `name_count`.
// Durations are exposed in seconds, per Prometheus convention.
func (w *PromWriter) Histogram(name string, labels map[string]string, s stats.Snapshot) {
	name = sanitizeName(name)
	w.typeLine(name, "histogram")
	for _, b := range s.Buckets() {
		le := "+Inf"
		if b.Le > 0 {
			le = formatFloat(b.Le.Seconds())
		}
		w.line(name+"_bucket", labels, "le", le, float64(b.Count))
	}
	w.line(name+"_sum", labels, "", "", s.Sum.Seconds())
	w.line(name+"_count", labels, "", "", float64(s.Count))
}

// Bytes returns the accumulated exposition.
func (w *PromWriter) Bytes() []byte { return []byte(w.b.String()) }

func (w *PromWriter) typeLine(name, typ string) {
	if !w.typed[name] {
		w.typed[name] = true
		fmt.Fprintf(&w.b, "# TYPE %s %s\n", name, typ)
	}
}

// line writes one sample line, appending an extra label (the histogram
// le) when extraK is non-empty. Label keys render sorted so output is
// deterministic; %q quoting covers the \\ \" \n escapes the format
// requires.
func (w *PromWriter) line(name string, labels map[string]string, extraK, extraV string, v float64) {
	w.b.WriteString(name)
	if len(labels) > 0 || extraK != "" {
		w.b.WriteByte('{')
		keys := make([]string, 0, len(labels))
		for k := range labels {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		first := true
		for _, k := range keys {
			if !first {
				w.b.WriteByte(',')
			}
			first = false
			fmt.Fprintf(&w.b, "%s=%q", sanitizeName(k), labels[k])
		}
		if extraK != "" {
			if !first {
				w.b.WriteByte(',')
			}
			fmt.Fprintf(&w.b, "%s=%q", extraK, extraV)
		}
		w.b.WriteByte('}')
	}
	w.b.WriteByte(' ')
	w.b.WriteString(formatFloat(v))
	w.b.WriteByte('\n')
}

// formatFloat renders v the way Prometheus clients do: integral values
// without a decimal point, everything else trimmed of trailing zeros.
func formatFloat(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.9f", v), "0"), ".")
}

// sanitizeName maps an arbitrary string onto the metric/label name
// charset [a-zA-Z0-9_:]; every other rune becomes '_', and a leading
// digit gets a '_' prefix.
func sanitizeName(s string) string {
	var out []byte
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			out = append(out, c)
		case c >= '0' && c <= '9':
			if i == 0 {
				out = append(out, '_')
			}
			out = append(out, c)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}
