package server_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"timingsubg/client"
	"timingsubg/internal/server"
	"timingsubg/internal/tenant"
)

// BenchmarkTenantIngest measures the control plane's toll on the hot
// path: the same NDJSON ingest workload through the full HTTP stack,
// with tenancy off (the pre-tenancy server) and on (key resolution,
// token-bucket admission per line, fair-share scheduling). The gap
// between the two cells is the per-request price of multi-tenancy.
func BenchmarkTenantIngest(b *testing.B) {
	const batchSize = 256
	run := func(b *testing.B, cfg server.Config, key string) {
		srv := server.New(cfg)
		defer srv.Close()
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()

		// One reusable NDJSON body with server-assigned timestamps, fed
		// via raw HTTP so client-side encoding stays out of the measured
		// path.
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		for i := 0; i < batchSize; i++ {
			v := int64(i)
			if err := enc.Encode(client.Edge{From: v, To: v + 1, FromLabel: "N", ToLabel: "N", Label: "x"}); err != nil {
				b.Fatal(err)
			}
		}
		body := buf.Bytes()

		c := client.New(ts.URL, nil).WithAPIKey(key)
		ctx := b.Context()
		if err := c.AddQuery(ctx, client.QueryRequest{Name: "pp", Text: pingPong, Window: 1000}); err != nil {
			b.Fatalf("register: %v", err)
		}

		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/ingest", bytes.NewReader(body))
			if err != nil {
				b.Fatal(err)
			}
			req.Header.Set("Content-Type", "application/x-ndjson")
			if key != "" {
				req.Header.Set("Authorization", "Bearer "+key)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				b.Fatal(err)
			}
			var res client.IngestResult
			if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
				b.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != 200 || res.Accepted != batchSize {
				b.Fatalf("ingest = %d %+v", resp.StatusCode, res)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(b.N*batchSize)/b.Elapsed().Seconds(), "edges/s")
	}

	b.Run("open", func(b *testing.B) {
		run(b, server.Config{}, "")
	})
	b.Run("tenanted", func(b *testing.B) {
		reg := tenant.NewRegistry()
		// Real but non-binding limits, so every admission check runs at
		// full depth without ever rejecting.
		if _, err := reg.Create(tenant.Spec{
			Name:   "bench",
			Keys:   []tenant.KeySpec{{Key: "k-bench"}},
			Limits: tenant.Limits{EdgesPerSec: 1e9, BatchesPerSec: 1e9, MaxQueries: 100, MaxSubscriptions: 100},
		}); err != nil {
			b.Fatal(err)
		}
		run(b, server.Config{Tenants: reg}, "k-bench")
	})
}
