// Package monitor renders live engine counters in the Prometheus text
// exposition format — the scrape-side companion to GET /stats, which
// serves the same counters as one typed JSON snapshot.
//
// The package is intentionally tiny and dependency-free: it is the
// integration point for scraping systems, not a metrics framework.
package monitor
