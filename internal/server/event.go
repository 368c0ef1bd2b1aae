package server

import (
	"encoding/json"
	"strconv"
	"sync"
	"sync/atomic"

	"timingsubg"
)

// The match event encoder. Every delivery becomes a client.MatchEvent
// on the wire, once for the resume log and again only on a log miss.
// Its JSON is appended field by field in struct order, so the bytes are
// those json.Marshal writes for the same MatchEvent (FuzzMatchEventEncoding
// checks that). The strings in it are the query's wire name and owner,
// escaped once at registration into the query's eventHead, and the edge
// labels, escaped once per label beside the intern table (labelJSON).
// Both escape with json.Marshal itself, so HTML escaping, U+2028/U+2029
// and invalid UTF-8 come out as the reference does by construction.

// jsonString is s as a JSON string literal, quotes included.
func jsonString(s string) []byte {
	b, _ := json.Marshal(s) // a string always marshals
	return b
}

// eventHead is the JSON of a MatchEvent up to its seq field:
// `{"query":<wire>` and, when the query has an owner, `,"tenant":<owner>`.
func eventHead(wire, owner string) []byte {
	b := append([]byte(`{"query":`), jsonString(wire)...)
	if owner != "" {
		b = append(b, `,"tenant":`...)
		b = append(b, jsonString(owner)...)
	}
	return b
}

// queryEvents is one registered query's encoder state.
type queryEvents struct {
	head []byte // eventHead of the query's wire name and owner; immutable
	// buf is record's scratch. A query's deliveries are serialized, so
	// only one record at a time uses it.
	buf []byte
}

// labelJSON mirrors the append-only label intern table with each
// label's JSON string literal, so an event escapes no label. Readers
// load the slice without a lock; a label not mirrored yet extends it
// under mu, appending past every published length, so no reader ever
// sees an element being written.
type labelJSON struct {
	labels *timingsubg.Labels
	mu     sync.Mutex
	esc    atomic.Pointer[[][]byte] // esc[id] = jsonString(label id)
}

func newLabelJSON(labels *timingsubg.Labels) *labelJSON {
	l := &labelJSON{labels: labels}
	l.esc.Store(&[][]byte{})
	return l
}

// get returns label id's JSON string literal; the empty label's is `""`.
func (l *labelJSON) get(id timingsubg.Label) []byte {
	if t := *l.esc.Load(); uint(id) < uint(len(t)) {
		return t[id]
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	t := *l.esc.Load()
	for n := l.labels.Len(); len(t) < n; {
		t = append(t, jsonString(l.labels.String(timingsubg.Label(len(t)))))
	}
	l.esc.Store(&t)
	if uint(id) < uint(len(t)) {
		return t[id]
	}
	return jsonString(l.labels.String(id)) // an ID the table never issued
}

// appendMatchEvent appends the JSON of the MatchEvent whose head is
// head (see eventHead), with sequence number seq and m's edges, to b.
// seq and an empty label are omitted, as their omitempty tags say.
func (l *labelJSON) appendMatchEvent(b, head []byte, seq int64, m *timingsubg.Match) []byte {
	b = append(b, head...)
	if seq != 0 {
		b = append(b, `,"seq":`...)
		b = strconv.AppendInt(b, seq, 10)
	}
	b = append(b, `,"edges":[`...)
	for i, e := range m.Edges {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"id":`...)
		b = strconv.AppendInt(b, int64(e.ID), 10)
		b = append(b, `,"from":`...)
		b = strconv.AppendInt(b, int64(e.From), 10)
		b = append(b, `,"to":`...)
		b = strconv.AppendInt(b, int64(e.To), 10)
		if lbl := l.get(e.EdgeLabel); len(lbl) > len(`""`) {
			b = append(b, `,"label":`...)
			b = append(b, lbl...)
		}
		b = append(b, `,"time":`...)
		b = strconv.AppendInt(b, int64(e.Time), 10)
		b = append(b, '}')
	}
	return append(b, "]}"...)
}
