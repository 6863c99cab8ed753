package main

import (
	"strings"
	"testing"
	"time"

	"github.com/eyeorg/eyeorg/internal/telemetry"
)

// TestScrapedQuantileMatchesHistogram round-trips observations through
// the text exposition: two endpoint series rendered by the telemetry
// registry, parsed and merged by mergeHistograms, must give the same
// quantile estimate Histogram.Quantile gives on one histogram holding
// every observation.
func TestScrapedQuantileMatchesHistogram(t *testing.T) {
	bounds := []float64{0.0005, 0.001, 0.005, 0.01, 0.05, 0.1}
	reg := telemetry.NewRegistry()
	events := reg.Histogram("eyeorg_http_request_seconds", `endpoint="events"`, bounds)
	response := reg.Histogram("eyeorg_http_request_seconds", `endpoint="response"`, bounds)
	join := reg.Histogram("eyeorg_http_request_seconds", `endpoint="join"`, bounds)
	union := reg.Histogram("union_seconds", "", bounds)
	for i := 0; i < 500; i++ {
		d := time.Duration(i*i) * 700 * time.Nanosecond // 0 to ~175 ms: every bucket, overflow too
		if i%3 == 0 {
			response.Observe(d)
		} else {
			events.Observe(d)
		}
		union.Observe(d)
		join.Observe(time.Second) // filtered out by keep
	}
	var sb strings.Builder
	reg.Render(&sb)

	ingest := func(endpoint string) bool { return endpoint == "events" || endpoint == "response" }
	h := mergeHistograms(sb.String(), "eyeorg_http_request_seconds", ingest)
	if h.total != union.Count() {
		t.Fatalf("merged %d observations, want %d", h.total, union.Count())
	}
	for _, q := range []float64{0, 0.1, 0.5, 0.9, 0.99, 0.999, 1} {
		got, want := telemetry.BucketQuantile(h.bounds, h.counts, q), union.Quantile(q)
		if got != want {
			t.Fatalf("q=%v: scraped estimate %v, Histogram.Quantile %v", q, got, want)
		}
	}
	if got := mergeHistograms(sb.String(), "absent_seconds", ingest); got.total != 0 ||
		telemetry.BucketQuantile(got.bounds, got.counts, 0.99) != 0 {
		t.Fatalf("absent family: %+v", got)
	}
}
