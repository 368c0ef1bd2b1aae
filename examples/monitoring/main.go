// Command monitoring runs a routed fleet of three attack/fraud patterns
// over a synthetic stream while serving its live Stats snapshot over
// HTTP as JSON — the operational shape of a production deployment: one
// process, many standing queries, a scrape endpoint.
//
// Alert consumption rides the engine's results plane: one
// Engine.Subscribe subscription (instead of the legacy OnMatch
// callback) drains matches concurrently with ingest through the
// iterator form, tagging each alert with its query name.
//
// The program starts the endpoint on an ephemeral port, feeds the
// stream, scrapes its own endpoint twice (mid-run and at the end), and
// prints both samples, demonstrating that metrics are live.
package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"

	"timingsubg"
)

func pattern2(labels *timingsubg.Labels, a, b, c string) *timingsubg.Query {
	bld := timingsubg.NewQueryBuilder()
	va := bld.AddVertex(labels.Intern(a))
	vb := bld.AddVertex(labels.Intern(b))
	vc := bld.AddVertex(labels.Intern(c))
	e1 := bld.AddEdge(va, vb)
	e2 := bld.AddEdge(vb, vc)
	bld.Before(e1, e2)
	q, err := bld.Build()
	if err != nil {
		panic(err)
	}
	return q
}

func main() {
	labels := timingsubg.NewLabels()
	specs := []timingsubg.QuerySpec{
		{Name: "exfiltration", Query: pattern2(labels, "victim", "webserver", "ccserver"), Options: timingsubg.Options{Window: 200}},
		{Name: "cashout", Query: pattern2(labels, "account", "merchant", "account"), Options: timingsubg.Options{Window: 200}},
		{Name: "lateral", Query: pattern2(labels, "host", "host", "host"), Options: timingsubg.Options{Window: 200}},
	}
	ms, err := timingsubg.OpenFleet(timingsubg.Config{
		Queries: specs,
		Routed:  true,
	})
	if err != nil {
		panic(err)
	}

	// The results plane: a runtime-attached subscription consumes every
	// query's alerts concurrently with ingest. Block means lossless —
	// and cannot stall the feed as long as this loop keeps draining.
	sub, err := ms.Subscribe(timingsubg.SubscribeOptions{Policy: timingsubg.Block})
	if err != nil {
		panic(err)
	}
	alerts := map[string]int{}
	alertsDone := make(chan struct{})
	go func() {
		defer close(alertsDone)
		for name := range sub.Matches() {
			alerts[name]++
		}
	}()

	// A fleet's Stats is safe to sample while it is fed, so the endpoint
	// needs no lock of its own.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	defer ln.Close()
	go http.Serve(ln, http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(ms.Stats())
	}))
	url := "http://" + ln.Addr().String()
	fmt.Printf("metrics endpoint: %s\n", url)

	// Synthetic traffic: hosts, accounts, servers with stable labels.
	rng := rand.New(rand.NewSource(5))
	kinds := []string{"victim", "webserver", "ccserver", "account", "merchant", "host"}
	vertexLabel := func(v timingsubg.VertexID) timingsubg.Label {
		return labels.Intern(kinds[int(v)%len(kinds)])
	}
	scrape := func(tag string) {
		resp, err := http.Get(url)
		if err != nil {
			panic(err)
		}
		defer resp.Body.Close()
		var st timingsubg.Stats
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			panic(err)
		}
		fmt.Printf("-- scrape %s --\n", tag)
		fmt.Printf("  fed %d  matches %d  in window %d  partial matches %d  space %d B\n",
			st.Fed, st.Matches, st.InWindow, st.PartialMatches, st.SpaceBytes)
		for _, spec := range specs {
			qs := st.Queries[spec.Name]
			fmt.Printf("  %-14s matches %-5d in window %-4d join scanned %d\n",
				spec.Name, qs.Matches, qs.InWindow, qs.JoinScanned)
		}
	}

	const n = 4000
	for i := 0; i < n; i++ {
		from := timingsubg.VertexID(rng.Intn(60))
		to := timingsubg.VertexID(rng.Intn(60))
		if from == to {
			to = (to + 1) % 60
		}
		if _, err := ms.Feed(timingsubg.Edge{
			From: from, To: to,
			FromLabel: vertexLabel(from), ToLabel: vertexLabel(to),
			Time: timingsubg.Timestamp(i + 1),
		}); err != nil {
			panic(err)
		}
		if i == n/2 {
			scrape("mid-run")
		}
	}
	st := ms.Stats()
	ms.Close() // ends the subscription; the alert drain exits
	<-alertsDone
	scrape("final")

	fmt.Println("-- alerts --")
	for _, spec := range specs {
		fmt.Printf("  %-14s %d\n", spec.Name, alerts[spec.Name])
	}
	fmt.Printf("routed dispatch fraction: %.3f (1.0 would be naive fan-out)\n", st.RoutedFraction)
}
