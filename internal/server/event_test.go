package server

import (
	"encoding/binary"
	"encoding/json"
	"math"
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
// each edge's label given as a string the case interns.
type eventCase struct {
	query, tenant string
	seq           int64
	edges         []client.MatchEdge
}

// checkEncoding encodes c through eventHead and labelJSON and compares
// the bytes with json.Marshal of the MatchEvent c describes. The label
// table grows while the case is encoded (each edge's label is interned
// just before its edge is encoded again), so the mirror's extension is
// exercised too.
func checkEncoding(t *testing.T, c eventCase) {
	t.Helper()
	labels := timingsubg.NewLabels()
	enc := newLabelJSON(labels)
	m := &timingsubg.Match{Edges: make([]timingsubg.Edge, len(c.edges))}
	for i, e := range c.edges {
		m.Edges[i] = timingsubg.Edge{
			ID:        timingsubg.EdgeID(e.ID),
			From:      timingsubg.VertexID(e.From),
			To:        timingsubg.VertexID(e.To),
			EdgeLabel: labels.Intern(e.Label),
			Time:      timingsubg.Timestamp(e.Time),
		}
		enc.appendMatchEvent(nil, eventHead(c.query, c.tenant), c.seq, m)
	}
	want, err := json.Marshal(client.MatchEvent{Query: c.query, Tenant: c.tenant, Seq: c.seq, Edges: c.edges})
	if err != nil {
		t.Fatal(err)
	}
	got := enc.appendMatchEvent([]byte("stale"), eventHead(c.query, c.tenant), c.seq, m)
	if string(got[len("stale"):]) != string(want) {
		t.Fatalf("encoded\n %s\nwant\n %s", got[len("stale"):], want)
	}
}

// TestMatchEventEncoding compares the encoder with json.Marshal on the
// cases its shortcuts could get wrong: strings json.Marshal escapes
// (HTML, quotes, control bytes, U+2028/U+2029, invalid UTF-8), the
// omitempty fields (tenant, seq, label) and the int64 extremes.
func TestMatchEventEncoding(t *testing.T) {
	edge := func(id int64, label string) client.MatchEdge {
		return client.MatchEdge{ID: id, From: id * 3, To: -id, Label: label, Time: id + 7}
	}
	eight := make([]client.MatchEdge, 8)
	for i := range eight {
		eight[i] = edge(int64(i), []string{"", "ping", "pong"}[i%3])
	}
	for name, c := range map[string]eventCase{
		"plain":         {query: "pp", seq: 1, edges: []client.MatchEdge{edge(1, "ping"), edge(2, "pong")}},
		"no edges":      {query: "pp", seq: 3, edges: []client.MatchEdge{}},
		"eight edges":   {query: "pp", tenant: "acme", seq: 9, edges: eight},
		"seq zero":      {query: "pp", edges: []client.MatchEdge{edge(1, "")}},
		"seq negative":  {query: "pp", seq: -42, edges: []client.MatchEdge{edge(-5, "x")}},
		"int64 extreme": {query: "pp", seq: math.MinInt64, edges: []client.MatchEdge{edge(math.MaxInt64, "y"), {ID: math.MinInt64, From: math.MaxInt64, To: math.MinInt64, Time: math.MinInt64}}},
		"html":          {query: "<a>&b", tenant: "t<&>", seq: 1, edges: []client.MatchEdge{edge(1, "</script>&amp;")}},
		"quotes":        {query: `say "hi"\`, tenant: `\"`, seq: 1, edges: []client.MatchEdge{edge(1, `"`)}},
		"control bytes": {query: "a\x00b\tc\nd\x1f", tenant: "\x7f\r", seq: 2, edges: []client.MatchEdge{edge(1, "\b\f\x01")}},
		"line seps":     {query: "a\u2028b\u2029c", tenant: "é\U0001F600", seq: 2, edges: []client.MatchEdge{edge(1, "\u2028")}},
		"invalid utf-8": {query: "a\xffb\xc3", tenant: "\xed\xa0\x80", seq: 5, edges: []client.MatchEdge{edge(1, "\xe2\x80"), edge(2, "\x80")}},
		"empty strings": {query: "", tenant: "", seq: 1, edges: []client.MatchEdge{edge(1, ""), edge(2, "")}},
	} {
		t.Run(name, func(t *testing.T) { checkEncoding(t, c) })
	}
}

// FuzzMatchEventEncoding is TestMatchEventEncoding on arbitrary input:
// query, tenant and two label strings, a seq, and up to eight edges,
// one per 8-byte word of raw, each word giving the edge's numbers and
// choosing its label among "", label1 and label2.
func FuzzMatchEventEncoding(f *testing.F) {
	f.Add("pp", "", "ping", "pong", int64(1), []byte("\x01\x00\x00\x00\x00\x00\x00\x00\x02\x00\x00\x00\x00\x00\x00\x00"))
	f.Add("<q>", "a&b", "\u2029", "\xff", int64(math.MinInt64), []byte("\xff\xff\xff\xff\xff\xff\xff\x7f"))
	f.Fuzz(func(t *testing.T, query, tenant, label1, label2 string, seq int64, raw []byte) {
		var edges []client.MatchEdge
		for len(raw) >= 8 && len(edges) < 8 {
			w := binary.LittleEndian.Uint64(raw)
			raw = raw[8:]
			edges = append(edges, client.MatchEdge{
				ID:    int64(w),
				From:  int64(w * 31),
				To:    -int64(w),
				Label: []string{"", label1, label2}[w%3],
				Time:  int64(w>>7 | w<<57),
			})
		}
		if edges == nil {
			edges = []client.MatchEdge{}
		}
		checkEncoding(t, eventCase{query: query, tenant: tenant, seq: seq, edges: edges})
	})
}
