package server

import (
	"encoding/binary"
	"encoding/json"
	"math"
	"slices"
	"testing"

	"timingsubg"
	"timingsubg/client"
)

// matchEvent is the reference form of one delivery on the wire: the
// client.MatchEvent a consumer decodes, built field by field from the
// server's roster and label table. json.Marshal of it is what the
// encoder must write.
func (s *Server) matchEvent(dv timingsubg.Delivery) client.MatchEvent {
	m := dv.Match
	wire, owner := dv.Query, ""
	s.qmu.RLock()
	if meta, ok := s.queries[dv.Query]; ok {
		wire, owner = meta.wire, meta.tenant
	}
	s.qmu.RUnlock()
	ev := client.MatchEvent{Query: wire, Tenant: owner, Seq: dv.Seq, Edges: make([]client.MatchEdge, len(m.Edges))}
	for i, e := range m.Edges {
		ev.Edges[i] = client.MatchEdge{
			ID:   int64(e.ID),
			From: int64(e.From),
			To:   int64(e.To),
			Time: int64(e.Time),
		}
		if e.EdgeLabel != timingsubg.NoLabel {
			ev.Edges[i].Label = s.labels.String(e.EdgeLabel)
		}
	}
	return ev
}

// eventCase is one MatchEvent to encode: its strings and numbers, with
// each edge's label given as a string the case interns, or, for the
// edges that unissued maps, as a label ID the table never issued.
type eventCase struct {
	query, tenant string
	seq           int64
	edges         []client.MatchEdge
	unissued      map[int]timingsubg.Label
}

// checkEncoding encodes c three ways and compares them: json.Marshal
// of the MatchEvent c describes, appendMatchEvent from the match, and
// appendRecordEvent from the match's record. The label table grows
// while the case is encoded (each edge's label is interned just before
// its edge is encoded again), so the mirror's extension is exercised
// too.
func checkEncoding(t *testing.T, c eventCase) {
	t.Helper()
	labels := timingsubg.NewLabels()
	enc := newLabelJSON(labels)
	head := eventHead(c.query, c.tenant)
	m := &timingsubg.Match{Edges: make([]timingsubg.Edge, len(c.edges))}
	for i, e := range c.edges {
		lbl, ok := c.unissued[i]
		if !ok {
			lbl = labels.Intern(e.Label)
		}
		m.Edges[i] = timingsubg.Edge{
			ID:        timingsubg.EdgeID(e.ID),
			From:      timingsubg.VertexID(e.From),
			To:        timingsubg.VertexID(e.To),
			EdgeLabel: lbl,
			Time:      timingsubg.Timestamp(e.Time),
		}
		enc.appendMatchEvent(nil, head, c.seq, m)
	}
	ref := client.MatchEvent{Query: c.query, Tenant: c.tenant, Seq: c.seq, Edges: slices.Clone(c.edges)}
	for i, lbl := range c.unissued {
		ref.Edges[i].Label = labels.String(lbl)
	}
	want, err := json.Marshal(ref)
	if err != nil {
		t.Fatal(err)
	}
	got := enc.appendMatchEvent([]byte("stale"), head, c.seq, m)
	if string(got[len("stale"):]) != string(want) {
		t.Fatalf("encoded\n %s\nwant\n %s", got[len("stale"):], want)
	}
	rec := appendRecord([]byte("stale"), m)[len("stale"):]
	got = enc.appendRecordEvent([]byte("stale"), head, c.seq, rec)
	if string(got[len("stale"):]) != string(want) {
		t.Fatalf("encoded from the record %x\n %s\nwant\n %s", rec, got[len("stale"):], want)
	}
}

// TestMatchEventEncoding compares the encoders with json.Marshal on the
// cases their shortcuts could get wrong: strings json.Marshal escapes
// (HTML, quotes, control bytes, U+2028/U+2029, invalid UTF-8), the
// omitempty fields (tenant, seq and label), the int64 extremes, which
// make the record's deltas wrap, a label ID the table never issued,
// and a match of 0 and of 64 edges.
func TestMatchEventEncoding(t *testing.T) {
	edge := func(id int64, label string) client.MatchEdge {
		return client.MatchEdge{ID: id, From: id * 3, To: -id, Label: label, Time: id + 7}
	}
	eight := make([]client.MatchEdge, 8)
	for i := range eight {
		eight[i] = edge(int64(i), []string{"", "ping", "pong"}[i%3])
	}
	sixtyFour := make([]client.MatchEdge, 64)
	for i := range sixtyFour {
		sixtyFour[i] = edge(int64(i*i*i*i*i*i*i*i)-int64(i)<<40, []string{"a", "b", "", "c"}[i%4])
	}
	extremes := []int64{math.MinInt64, math.MaxInt64, math.MinInt64, 0, math.MaxInt64, -1, math.MinInt64 + 1, math.MaxInt64}
	wrapping := make([]client.MatchEdge, len(extremes))
	for i, x := range extremes {
		y := extremes[len(extremes)-1-i]
		wrapping[i] = client.MatchEdge{ID: x, From: y, To: x, Label: "w", Time: y}
	}
	for name, c := range map[string]eventCase{
		"plain":           {query: "pp", seq: 1, edges: []client.MatchEdge{edge(1, "ping"), edge(2, "pong")}},
		"no edges":        {query: "pp", seq: 3, edges: []client.MatchEdge{}},
		"eight edges":     {query: "pp", tenant: "acme", seq: 9, edges: eight},
		"sixty-four":      {query: "pp", tenant: "acme", seq: 1 << 40, edges: sixtyFour},
		"seq zero":        {query: "pp", edges: []client.MatchEdge{edge(1, "")}},
		"seq negative":    {query: "pp", seq: -42, edges: []client.MatchEdge{edge(-5, "x")}},
		"int64 extreme":   {query: "pp", seq: math.MinInt64, edges: []client.MatchEdge{edge(math.MaxInt64, "y"), {ID: math.MinInt64, From: math.MaxInt64, To: math.MinInt64, Time: math.MinInt64}}},
		"wrapping deltas": {query: "pp", seq: math.MaxInt64, edges: wrapping},
		"unissued label":  {query: "pp", seq: 4, edges: []client.MatchEdge{edge(1, "ping"), edge(2, ""), edge(3, "")}, unissued: map[int]timingsubg.Label{1: 1000, 2: math.MaxInt32}},
		"html":            {query: "<a>&b", tenant: "t<&>", seq: 1, edges: []client.MatchEdge{edge(1, "</script>&amp;")}},
		"quotes":          {query: `say "hi"\`, tenant: `\"`, seq: 1, edges: []client.MatchEdge{edge(1, `"`)}},
		"control bytes":   {query: "a\x00b\tc\nd\x1f", tenant: "\x7f\r", seq: 2, edges: []client.MatchEdge{edge(1, "\b\f\x01")}},
		"line seps":       {query: "a\u2028b\u2029c", tenant: "é\U0001F600", seq: 2, edges: []client.MatchEdge{edge(1, "\u2028")}},
		"invalid utf-8":   {query: "a\xffb\xc3", tenant: "\xed\xa0\x80", seq: 5, edges: []client.MatchEdge{edge(1, "\xe2\x80"), edge(2, "\x80")}},
		"empty strings":   {query: "", tenant: "", seq: 1, edges: []client.MatchEdge{edge(1, ""), edge(2, "")}},
	} {
		t.Run(name, func(t *testing.T) { checkEncoding(t, c) })
	}
}

// FuzzMatchEventEncoding is TestMatchEventEncoding on arbitrary input:
// query, tenant and two label strings, a seq, and up to 64 edges, one
// per 8-byte word of raw, each word giving the edge's numbers and
// choosing its label among "", label1, label2 and an ID the table
// never issued.
func FuzzMatchEventEncoding(f *testing.F) {
	f.Add("pp", "", "ping", "pong", int64(1), []byte("\x01\x00\x00\x00\x00\x00\x00\x00\x02\x00\x00\x00\x00\x00\x00\x00"))
	f.Add("<q>", "a&b", "\u2029", "\xff", int64(math.MinInt64), []byte("\xff\xff\xff\xff\xff\xff\xff\x7f"))
	f.Fuzz(func(t *testing.T, query, tenant, label1, label2 string, seq int64, raw []byte) {
		edges := []client.MatchEdge{}
		unissued := map[int]timingsubg.Label{}
		for len(raw) >= 8 && len(edges) < 64 {
			w := binary.LittleEndian.Uint64(raw)
			raw = raw[8:]
			if w%4 == 3 {
				unissued[len(edges)] = timingsubg.Label(1000 + w>>32%1000)
			}
			edges = append(edges, client.MatchEdge{
				ID:    int64(w),
				From:  int64(w * 31),
				To:    -int64(w),
				Label: []string{"", label1, label2, ""}[w%4],
				Time:  int64(w>>7 | w<<57),
			})
		}
		checkEncoding(t, eventCase{query: query, tenant: tenant, seq: seq, edges: edges, unissued: unissued})
	})
}
