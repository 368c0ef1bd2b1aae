package server

import (
	"encoding/json"
	"errors"
	"unicode/utf8"

	"timingsubg"
	"timingsubg/client"
)

// errNegativeTime rejects a line whose time is below zero, whichever
// decoder read it.
var errNegativeTime = errors.New("time must be non-negative")

// decodeLine decodes one non-empty NDJSON ingest line and interns its
// labels. A plain-form line (parseEdge) is read in place and its
// labels interned from the line's bytes; any other line goes through
// encoding/json unchanged. Labels are interned only once the line is
// known good, so a rejected line never grows the intern table.
func (s *Server) decodeLine(raw []byte) (timingsubg.Edge, error) {
	var p plainEdge
	if parseEdge(raw, &p) {
		if p.time < 0 {
			return timingsubg.Edge{}, errNegativeTime
		}
		return timingsubg.Edge{
			From:      timingsubg.VertexID(p.from),
			To:        timingsubg.VertexID(p.to),
			FromLabel: s.labels.InternBytes(p.fromLabel),
			ToLabel:   s.labels.InternBytes(p.toLabel),
			EdgeLabel: s.labels.InternBytes(p.label),
			Time:      timingsubg.Timestamp(p.time),
		}, nil
	}
	var e client.Edge
	if err := json.Unmarshal(raw, &e); err != nil {
		return timingsubg.Edge{}, err
	}
	if e.Time < 0 {
		return timingsubg.Edge{}, errNegativeTime
	}
	return timingsubg.Edge{
		From:      timingsubg.VertexID(e.From),
		To:        timingsubg.VertexID(e.To),
		FromLabel: s.labels.Intern(e.FromLabel),
		ToLabel:   s.labels.Intern(e.ToLabel),
		EdgeLabel: s.labels.Intern(e.Label),
		Time:      timingsubg.Timestamp(e.Time),
	}, nil
}

// plainEdge is one NDJSON ingest line decoded by parseEdge. The label
// slices alias the line, so they are valid only until the scanner
// reads the next one.
type plainEdge struct {
	from, to, time            int64
	fromLabel, toLabel, label []byte
}

// parseEdge decodes line into e if it is in the plain form of the
// client.Edge schema, and reports whether it was. The plain form is the
// subset of JSON on which this parser and encoding/json cannot
// disagree:
//
//   - one object, optional JSON whitespace around its tokens, and
//     nothing after the closing brace;
//   - keys spelled exactly from, to, from_label, to_label, label and
//     time, each at most once (encoding/json folds case and lets the
//     last duplicate win);
//   - integers matching -?(0|[1-9][0-9]*) with at most 18 digits, so
//     they fit an int64 (no fraction, exponent or null);
//   - strings of ASCII from 0x20 to 0x7F with no escape (encoding/json
//     rewrites invalid UTF-8).
//
// A false return says only "not plain": the caller hands the line to
// encoding/json, which then owns every error message and edge case.
func parseEdge(line []byte, e *plainEdge) bool {
	*e = plainEdge{}
	i := skipSpace(line, 0)
	if i == len(line) || line[i] != '{' {
		return false
	}
	i = skipSpace(line, i+1)
	if i < len(line) && line[i] == '}' {
		return skipSpace(line, i+1) == len(line)
	}
	var (
		seen uint8
		key  []byte
		ok   bool
	)
	for {
		if key, i, ok = parseString(line, i); !ok {
			return false
		}
		if i = skipSpace(line, i); i == len(line) || line[i] != ':' {
			return false
		}
		i = skipSpace(line, i+1)
		var num *int64
		var str *[]byte
		var bit uint8
		switch string(key) {
		case "from":
			num, bit = &e.from, 1<<0
		case "to":
			num, bit = &e.to, 1<<1
		case "time":
			num, bit = &e.time, 1<<2
		case "from_label":
			str, bit = &e.fromLabel, 1<<3
		case "to_label":
			str, bit = &e.toLabel, 1<<4
		case "label":
			str, bit = &e.label, 1<<5
		default:
			return false
		}
		if seen&bit != 0 {
			return false
		}
		seen |= bit
		if num != nil {
			*num, i, ok = parseInt(line, i)
		} else {
			*str, i, ok = parseString(line, i)
		}
		if !ok {
			return false
		}
		if i = skipSpace(line, i); i == len(line) {
			return false
		}
		switch line[i] {
		case ',':
			i = skipSpace(line, i+1)
		case '}':
			return skipSpace(line, i+1) == len(line)
		default:
			return false
		}
	}
}

// skipSpace returns the index of the first non-whitespace byte of b at
// or after i, by JSON's definition of whitespace.
func skipSpace(b []byte, i int) int {
	for i < len(b) {
		switch b[i] {
		case ' ', '\t', '\n', '\r':
			i++
		default:
			return i
		}
	}
	return i
}

// parseString reads a plain-form string starting at b[i] and returns
// its contents (aliasing b) and the index after the closing quote.
func parseString(b []byte, i int) ([]byte, int, bool) {
	if i == len(b) || b[i] != '"' {
		return nil, i, false
	}
	start := i + 1
	for j := start; j < len(b); j++ {
		switch c := b[j]; {
		case c == '"':
			return b[start:j], j + 1, true
		case c < 0x20 || c == '\\' || c >= utf8.RuneSelf:
			return nil, j, false
		}
	}
	return nil, len(b), false
}

// parseInt reads a plain-form integer starting at b[i] and returns it
// and the index after its last digit. The byte after the number is the
// caller's to check, so a fraction or exponent fails there.
func parseInt(b []byte, i int) (int64, int, bool) {
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	start := i
	var n int64
	for ; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
		n = n*10 + int64(b[i]-'0')
	}
	if d := i - start; d == 0 || d > 18 || (d > 1 && b[start] == '0') {
		return 0, i, false
	}
	if neg {
		n = -n
	}
	return n, i, true
}
