// Scraping the platform's /metrics endpoint: the load generator reads
// back the server's self-reported latency histograms so a run (and the
// bench report) can cross-check the server's view of ingest latency
// against the client-observed one — which doubles as an integration
// check that the exposition is consumable by a real scraper.
package main

import (
	"fmt"
	"io"
	"math"
	"net/http"

	"github.com/eyeorg/eyeorg/internal/telemetry"
)

// scrapeIngestP99 reads the target's /metrics and returns the server's
// self-reported p99 over the ingest endpoints (events + responses), in
// milliseconds. An error means the endpoint is absent or unreadable —
// the caller decides whether that matters.
func scrapeIngestP99(client *http.Client, target string) (float64, error) {
	resp, err := client.Get(target + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	ingest := func(endpoint string) bool { return endpoint == "events" || endpoint == "response" }
	bounds, counts := telemetry.ParseHistogram(string(body), "eyeorg_http_request_seconds", "endpoint", ingest)
	var n uint64
	for _, c := range counts {
		n += c
	}
	if n == 0 {
		return 0, fmt.Errorf("no ingest samples in exposition")
	}
	return telemetry.BucketQuantile(bounds, counts, 0.99) * 1000, nil
}

// roundMs rounds a float millisecond value to the microsecond, the
// same rounding the client-side report uses.
func roundMs(ms float64) float64 {
	return math.Round(ms*1000) / 1000
}
