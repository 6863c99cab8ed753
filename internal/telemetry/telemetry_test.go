package telemetry

import (
	"flag"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	const goroutines, per = 32, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != goroutines*per {
		t.Fatalf("counter = %d, want %d", got, goroutines*per)
	}
}

func TestGaugeDeltas(t *testing.T) {
	var g Gauge
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				g.Add(3)
				g.Add(-2)
			}
		}()
	}
	wg.Wait()
	if got := g.Value(); got != 16*500 {
		t.Fatalf("gauge = %d, want %d", got, 16*500)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := newHistogram(nil)
	// 1000 observations of 2ms: p50 and p99 both interpolate inside the
	// (1ms, 2.5ms] bucket.
	for i := 0; i < 1000; i++ {
		h.Observe(2 * time.Millisecond)
	}
	if got := h.Count(); got != 1000 {
		t.Fatalf("count = %d, want 1000", got)
	}
	if got := h.Sum(); math.Abs(got-2.0) > 0.001 {
		t.Fatalf("sum = %v, want ~2.0s", got)
	}
	for _, q := range []float64{0.5, 0.99} {
		v := h.Quantile(q)
		if v <= 0.001 || v > 0.0025 {
			t.Fatalf("q%v = %v, want within (0.001, 0.0025]", q, v)
		}
	}
	if h.Quantile(0) < 0 {
		t.Fatalf("q0 negative")
	}
}

func TestHistogramQuantileEmptyAndOverflow(t *testing.T) {
	h := newHistogram(nil)
	if got := h.Quantile(0.99); got != 0 {
		t.Fatalf("empty histogram q99 = %v, want 0", got)
	}
	h.Observe(time.Minute) // beyond the top bound: overflow bucket
	if got := h.Quantile(0.99); got != DefBuckets[len(DefBuckets)-1] {
		t.Fatalf("overflow q99 = %v, want clamp to %v", got, DefBuckets[len(DefBuckets)-1])
	}
}

func TestRegistryIdempotentRegistration(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", `op="a"`)
	b := r.Counter("x_total", `op="a"`)
	if a != b {
		t.Fatalf("same (name, labels) returned distinct counters")
	}
	if r.Counter("x_total", `op="b"`) == a {
		t.Fatalf("distinct labels shared a counter")
	}
	if r.Histogram("h_seconds", "", nil) != r.Histogram("h_seconds", "", nil) {
		t.Fatalf("same histogram key returned distinct instruments")
	}
}

// TestRenderGolden pins the exposition format byte for byte: families
// sorted by name, series by label set, HELP/TYPE once per family,
// cumulative le buckets with +Inf, _sum and _count.
func TestRenderGolden(t *testing.T) {
	r := NewRegistry()
	r.Help("eyeorg_http_requests_total", "API requests by endpoint and status class.")
	r.Counter("eyeorg_http_requests_total", `endpoint="join",code="2xx"`).Add(12)
	r.Counter("eyeorg_http_requests_total", `endpoint="join",code="4xx"`).Add(3)
	r.Counter("eyeorg_http_requests_total", `endpoint="results",code="2xx"`).Add(7)
	r.Help("eyeorg_sessions_inflight", "Joined sessions not yet completed.")
	r.Gauge("eyeorg_sessions_inflight", "").Add(5)
	r.GaugeFunc("eyeorg_videos_banned", "", func() float64 { return 2 })
	r.Help("eyeorg_ingest_seconds", "Ingest latency.")
	h := r.Histogram("eyeorg_ingest_seconds", `endpoint="events"`, []float64{0.001, 0.01, 0.1})
	h.Observe(500 * time.Microsecond)
	h.Observe(2 * time.Millisecond)
	h.Observe(2 * time.Millisecond)
	h.Observe(time.Second)

	var b strings.Builder
	r.Render(&b)
	got := b.String()

	golden := filepath.Join("testdata", "render.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Fatalf("exposition drifted from golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestHandlerServesExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "").Add(1)
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content-type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "a_total 1") {
		t.Fatalf("body missing sample:\n%s", rec.Body.String())
	}
}

// TestRenderWhileRecording exercises render/record races under -race:
// scrapes must never block or corrupt concurrent observers.
func TestRenderWhileRecording(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("spin_total", "")
	h := r.Histogram("spin_seconds", "", nil)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// At least one record before honouring stop: on a single-core
			// host the main goroutine can finish its scrapes before these
			// goroutines are first scheduled.
			for {
				c.Inc()
				h.Observe(time.Millisecond)
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}
	for i := 0; i < 50; i++ {
		var b strings.Builder
		r.Render(&b)
		if !strings.Contains(b.String(), "spin_total") {
			t.Fatalf("render lost a family")
		}
	}
	close(stop)
	wg.Wait()
	if c.Value() == 0 || h.Count() == 0 {
		t.Fatalf("nothing recorded")
	}
}

// TestScrapedQuantileMatchesHistogram round-trips observations through
// the text exposition: two endpoint series rendered by the registry,
// parsed and merged by ParseHistogram, must give the same quantile
// estimate Histogram.Quantile gives on one histogram holding every
// observation.
func TestScrapedQuantileMatchesHistogram(t *testing.T) {
	bounds := []float64{0.0005, 0.001, 0.005, 0.01, 0.05, 0.1}
	reg := NewRegistry()
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
	gotBounds, counts := ParseHistogram(sb.String(), "eyeorg_http_request_seconds", "endpoint", ingest)
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total != union.Count() {
		t.Fatalf("merged %d observations, want %d", total, union.Count())
	}
	for _, q := range []float64{0, 0.1, 0.5, 0.9, 0.99, 0.999, 1} {
		got, want := BucketQuantile(gotBounds, counts, q), union.Quantile(q)
		if got != want {
			t.Fatalf("q=%v: scraped estimate %v, Histogram.Quantile %v", q, got, want)
		}
	}
	if b, c := ParseHistogram(sb.String(), "absent_seconds", "endpoint", ingest); len(c) != 0 ||
		BucketQuantile(b, c, 0.99) != 0 {
		t.Fatalf("absent family: bounds %v counts %v", b, c)
	}
}
