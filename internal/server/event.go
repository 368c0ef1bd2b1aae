package server

import (
	"encoding/binary"
	"encoding/json"
	"strconv"
	"sync"
	"sync/atomic"

	"timingsubg"
)

// The match event codec. Every delivery has two forms. The resume log
// keeps it as a compact record (appendRecord); an SSE frame carries it
// as the JSON of a client.MatchEvent, written from the delivery itself
// on a live stream (appendMatchEvent) and from the record on a resume
// (appendRecordEvent). Both writers append the fields in struct order,
// so the bytes are those json.Marshal writes for the same MatchEvent
// (FuzzMatchEventEncoding checks all three against each other). The
// strings in it are the query's wire name and owner, escaped once at
// registration into the query's eventHead, and the edge labels, escaped
// once per label beside the intern table (labelJSON). Both escape with
// json.Marshal itself, so HTML escaping, U+2028/U+2029 and invalid
// UTF-8 come out as the reference does by construction.
//
// A record is the edge count as a uvarint, then per edge: ID and Time
// as zigzag varints of their difference from the previous edge's (the
// first edge's from 0), From and To as zigzag varints, and EdgeLabel as
// a uvarint of its 32 bits. The differences wrap, so every int64
// round-trips. A match's edges are close in ID and time, so an edge
// takes about a dozen bytes where its JSON takes eighty.

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
	// retired is set when the query is deleted. An SSE connection that
	// cached this head looks the name up again: a later registration of
	// the name may belong to another owner.
	retired atomic.Bool
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

// appendEventStart appends the JSON of a MatchEvent up to its first
// edge: head (see eventHead), then seq, which omitempty drops when 0.
func appendEventStart(b, head []byte, seq int64) []byte {
	b = append(b, head...)
	if seq != 0 {
		b = append(b, `,"seq":`...)
		b = strconv.AppendInt(b, seq, 10)
	}
	return append(b, `,"edges":[`...)
}

// appendEdge appends the JSON of the i-th edge of a match event. An
// empty label is omitted, as its omitempty tag says.
func (l *labelJSON) appendEdge(b []byte, i int, e timingsubg.Edge) []byte {
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
	return append(b, '}')
}

// appendMatchEvent appends the JSON of the MatchEvent whose head is
// head, with sequence number seq and m's edges, to b.
func (l *labelJSON) appendMatchEvent(b, head []byte, seq int64, m *timingsubg.Match) []byte {
	b = appendEventStart(b, head, seq)
	for i, e := range m.Edges {
		b = l.appendEdge(b, i, e)
	}
	return append(b, "]}"...)
}

// appendRecordEvent is appendMatchEvent for the match whose record
// (see appendRecord) is rec.
func (l *labelJSON) appendRecordEvent(b, head []byte, seq int64, rec []byte) []byte {
	b = appendEventStart(b, head, seq)
	n, k := binary.Uvarint(rec)
	rec = rec[k:]
	var e timingsubg.Edge
	for i := range int(n) {
		e, rec = nextRecordEdge(rec, e)
		b = l.appendEdge(b, i, e)
	}
	return append(b, "]}"...)
}

// appendRecord appends m's compact record to b.
func appendRecord(b []byte, m *timingsubg.Match) []byte {
	b = binary.AppendUvarint(b, uint64(len(m.Edges)))
	var prev timingsubg.Edge
	for _, e := range m.Edges {
		b = binary.AppendVarint(b, int64(e.ID-prev.ID))
		b = binary.AppendVarint(b, int64(e.Time-prev.Time))
		b = binary.AppendVarint(b, int64(e.From))
		b = binary.AppendVarint(b, int64(e.To))
		b = binary.AppendUvarint(b, uint64(uint32(e.EdgeLabel)))
		prev = e
	}
	return b
}

// nextRecordEdge decodes the edge at the front of rec, whose previous
// edge is prev, and returns it with the rest of rec. Records are only
// ever written by appendRecord, so rec is well formed.
func nextRecordEdge(rec []byte, prev timingsubg.Edge) (timingsubg.Edge, []byte) {
	var e timingsubg.Edge
	var v [4]int64
	for i := range v {
		x, k := binary.Varint(rec)
		v[i], rec = x, rec[k:]
	}
	lbl, k := binary.Uvarint(rec)
	e.ID = prev.ID + timingsubg.EdgeID(v[0])
	e.Time = prev.Time + timingsubg.Timestamp(v[1])
	e.From, e.To = timingsubg.VertexID(v[2]), timingsubg.VertexID(v[3])
	e.EdgeLabel = timingsubg.Label(uint32(lbl))
	return e, rec[k:]
}
