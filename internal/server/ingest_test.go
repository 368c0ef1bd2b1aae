package server_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"timingsubg"
	"timingsubg/client"
	"timingsubg/internal/server"
	"timingsubg/internal/tenant"
)

// postIngest sends body as one POST /ingest straight to h and returns
// the recorded response.
func postIngest(h http.Handler, key string, body io.Reader) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/ingest", body)
	req.Header.Set("Content-Type", "application/x-ndjson")
	if key != "" {
		req.Header.Set("Authorization", "Bearer "+key)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestIngestLineParity pins the per-line results of one body that mixes
// plain-form lines with every kind of line the plain decoder hands to
// encoding/json: the accepted count, the rejected count and each
// error's line and message are the same as before the plain decoder
// existed. It also pins the intern table: a label first seen through
// the fallback and then through the plain path is one ID, and labels of
// rejected lines are never interned.
func TestIngestLineParity(t *testing.T) {
	labels := timingsubg.NewLabels()
	srv := server.New(server.Config{Labels: labels})
	defer srv.Close()

	lines := []string{
		`{"from":1,"to":2,"from_label":"A","to_label":"B","label":"x","time":10}`,
		`{}`,
		``,
		`{"from":-0,"to":3,"from_label":"A","to_label":"B","time":20}`,
		`{"from":01,"time":21}`,
		`{"from":1.0,"time":22}`,
		`{"from":1e3,"time":23}`,
		`{"from":null,"to":4,"time":30}`,
		`{"FROM":5,"To":6,"From_Label":"A","time":40}`,
		`{"from":1,"from":2,"time":50}`,
		`{"from":7,"to":8,"from_label":"f\u0062","to_label":"N","time":60}`,
		`{"from":8,"to":9,"from_label":"fb","to_label":"N","time":61}`,
		`{"from_label":"été","time":70}`,
		"{\"to_label\":\"\xff\",\"time\":71}",
		`{"time":80}x`,
		` `,
		`{"from":"x"}`,
		`{"from":1.5,"from_label":"bad"}`,
		`{"from_label":"neg","time":-1}`,
		`{`,
		`{"time":5}`,
		"{\"from\":1, \"to\" : 2 ,\"from_label\":\"A\"\t,\"to_label\":\"B\",\"time\":90 }",
		`{"label":"x","time":90}`,
		`{"from":1,}`,
		`{"from":2,"to":3,"extra":true,"time":91}`,
		`{"time":123456789012345678}`,
		`{"time":1234567890123456789}`,
		`{"time":99999999999999999999}`,
	}
	rec := postIngest(srv.Handler(), "", strings.NewReader(strings.Join(lines, "\n")))
	if rec.Code != http.StatusOK {
		t.Fatalf("ingest = %d %s", rec.Code, rec.Body)
	}
	var got client.IngestResult
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	want := client.IngestResult{
		Accepted: 14,
		Rejected: 13,
		Errors: []client.IngestError{
			{Line: 5, Message: "invalid character '1' after object key:value pair"},
			{Line: 6, Message: "json: cannot unmarshal number 1.0 into Go struct field Edge.from of type int64"},
			{Line: 7, Message: "json: cannot unmarshal number 1e3 into Go struct field Edge.from of type int64"},
			{Line: 15, Message: "invalid character 'x' after top-level value"},
			{Line: 16, Message: "unexpected end of JSON input"},
			{Line: 17, Message: "json: cannot unmarshal string into Go struct field Edge.from of type int64"},
			{Line: 18, Message: "json: cannot unmarshal number 1.5 into Go struct field Edge.from of type int64"},
			{Line: 19, Message: "time must be non-negative"},
			{Line: 20, Message: "unexpected end of JSON input"},
			{Line: 24, Message: "invalid character '}' looking for beginning of object key string"},
			{Line: 28, Message: "json: cannot unmarshal number 99999999999999999999 into Go struct field Edge.time of type int64"},
			{Line: 21, Message: "out of order: time 5 after 71 (timestamps must be strictly increasing)"},
			{Line: 23, Message: "out of order: time 90 after 90 (timestamps must be strictly increasing)"},
		},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ingest result:\n got %#v\nwant %#v", got, want)
	}

	// "fb" arrived escaped (fallback) on line 11 and plain on line 12.
	strs := labels.Strings()
	n := 0
	for _, s := range strs {
		if s == "fb" {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("label %q interned %d times in %q, want once", "fb", n, strs)
	}
	for _, s := range []string{"bad", "neg"} {
		if _, ok := labels.Lookup(s); ok {
			t.Fatalf("label %q of a rejected line was interned", s)
		}
	}
	wantStrs := []string{"", "A", "B", "x", "fb", "N", "été", "\uFFFD"}
	if !reflect.DeepEqual(strs, wantStrs) {
		t.Fatalf("intern table = %q, want %q", strs, wantStrs)
	}
}

// TestIngestAllocs budgets one 256-line POST /ingest whose labels are
// already interned, served in process: request, scan, decode, intern,
// feed and response together. Decoding a plain-form line allocates
// nothing, so the budget is per request, and a single allocation per
// decoded line breaks it.
func TestIngestAllocs(t *testing.T) {
	const lines, budget = 256, 64
	srv := server.New(server.Config{})
	defer srv.Close()
	h := srv.Handler()

	var body bytes.Buffer
	for i := 0; i < lines; i++ {
		v := int64(i)
		if err := json.NewEncoder(&body).Encode(client.Edge{From: v, To: v + 1, FromLabel: "N", ToLabel: "N", Label: "x"}); err != nil {
			t.Fatal(err)
		}
	}
	post := func() {
		rec := postIngest(h, "", bytes.NewReader(body.Bytes()))
		if rec.Code != http.StatusOK || !bytes.Contains(rec.Body.Bytes(), []byte(`"accepted": 256`)) {
			t.Fatalf("ingest = %d %s", rec.Code, rec.Body)
		}
	}
	post() // interns the labels
	allocs := testing.AllocsPerRun(20, post)
	if allocs > budget {
		t.Fatalf("one %d-line POST /ingest: %v allocs, want <= %d", lines, allocs, budget)
	}
	t.Logf("one %d-line POST /ingest: %v allocs", lines, allocs)
}

// TestIngestUnreadableBody covers a body that cannot be read to its
// end: nothing is fed, the edge tokens its lines took are refunded (as
// on the 429 path), and a body over the 64 MiB cap answers 413 rather
// than 400.
func TestIngestUnreadableBody(t *testing.T) {
	reg := tenant.NewRegistry()
	tn, err := reg.Create(tenant.Spec{
		Name:   "t",
		Keys:   []tenant.KeySpec{{Key: "k-t"}},
		Limits: tenant.Limits{EdgesPerSec: 1e9, BatchesPerSec: 1e9},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Config{Tenants: reg})
	defer srv.Close()
	h := srv.Handler()
	good := `{"from":1,"to":2,"from_label":"N","to_label":"N","label":"x"}` + "\n"

	// One good line, then a line longer than the 1 MiB line limit.
	long := good + `{"label":"` + strings.Repeat("y", 2<<20) + `"}` + "\n"
	rec := postIngest(h, "k-t", strings.NewReader(long))
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "token too long") {
		t.Fatalf("over-long line = %d %q, want 400 token too long", rec.Code, rec.Body)
	}
	if u := tn.Usage(); u.AdmittedEdges != 0 {
		t.Fatalf("after the 400: admitted edges = %d, want 0 (refunded)", u.AdmittedEdges)
	}

	// Just over 64 MiB of good lines, each padded to 64 KiB.
	line := []byte(strings.TrimSuffix(good, "\n") + strings.Repeat(" ", 64<<10-len(good)) + "\n")
	parts := make([]io.Reader, 64<<20/len(line)+1)
	for i := range parts {
		parts[i] = bytes.NewReader(line)
	}
	rec = postIngest(h, "k-t", io.MultiReader(parts...))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-cap body = %d %q, want 413", rec.Code, rec.Body)
	}
	if u := tn.Usage(); u.AdmittedEdges != 0 {
		t.Fatalf("after the 413: admitted edges = %d, want 0 (refunded)", u.AdmittedEdges)
	}
	if lt := srv.LastTime(); lt != 0 {
		t.Fatalf("stream clock = %d after two unreadable bodies, want 0 (nothing fed)", lt)
	}
}
