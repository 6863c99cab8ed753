// Package telemetry is the platform's runtime observability subsystem:
// counters, gauges and fixed-bucket latency histograms whose hot path
// is a handful of atomic adds — no locks, no allocation — collected
// into a Registry that renders the Prometheus text exposition format
// (version 0.0.4) for a GET /metrics endpoint.
//
// The design splits the two sides of a metric by how often they run:
//
//   - Recording (Counter.Add, Histogram.Observe, Gauge.Add) happens on
//     every request of a server meant to absorb an unpredictable crowd,
//     so it must never serialize writers. Counters stripe their value
//     across cache-line-padded atomic cells; the stripe a goroutine
//     lands on is distributed round-robin through a sync.Pool, whose
//     per-P caching keeps goroutines on one P banging on one cell
//     instead of all of them sharing a single contended line.
//     Histograms are an array of those cells, one per bucket, plus a
//     striped sum.
//   - Reading (Render, Value, Quantile) happens a few times a minute
//     when a scraper walks /metrics, so it just sums the stripes. Reads
//     are not linearizable with concurrent writers — a scrape observes
//     each cell at a slightly different instant — which is exactly the
//     Prometheus contract.
//
// Metric identity is name plus an optional literal label set (e.g.
// `endpoint="join"`). Registration is idempotent: asking for the same
// (name, labels) pair returns the same instrument, so wiring code can
// re-derive handles instead of threading them through.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// stripes is the cell count counters spread across; a small power of
// two keeps Value cheap while giving concurrent writers on different Ps
// separate cache lines.
const stripes = 16

// cell is one padded atomic slot: 8 bytes of value, padded out to a
// 64-byte cache line so neighbouring stripes never false-share.
type cell struct {
	v atomic.Uint64
	_ [56]byte
}

// stripeSeq deals stripe indexes round-robin to the pool's tokens.
var stripeSeq atomic.Uint32

// stripePool hands each P a sticky stripe index: sync.Pool's per-P
// private slot means the common Get/Put pair never touches a shared
// lock, and every goroutine scheduled on that P reuses the same stripe.
var stripePool = sync.Pool{New: func() any {
	idx := stripeSeq.Add(1) % stripes
	return &idx
}}

// stripeIdx picks the calling goroutine's stripe.
func stripeIdx() uint32 {
	t := stripePool.Get().(*uint32)
	idx := *t
	stripePool.Put(t)
	return idx
}

// Counter is a monotonically increasing striped counter.
type Counter struct {
	cells [stripes]cell
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n. Safe for any number of concurrent callers.
func (c *Counter) Add(n uint64) {
	c.cells[stripeIdx()].v.Add(n)
}

// Value sums the stripes.
func (c *Counter) Value() uint64 {
	var total uint64
	for i := range c.cells {
		total += c.cells[i].v.Load()
	}
	return total
}

// Gauge is an up/down striped gauge driven by deltas (e.g. in-flight
// counts). Each stripe holds a signed delta; Value is their sum.
type Gauge struct {
	cells [stripes]cell
}

// Add applies a signed delta.
func (g *Gauge) Add(n int64) {
	g.cells[stripeIdx()].v.Add(uint64(n))
}

// Value sums the stripes.
func (g *Gauge) Value() int64 {
	var total uint64
	for i := range g.cells {
		total += g.cells[i].v.Load()
	}
	return int64(total)
}

// DefBuckets are the default latency bucket upper bounds in seconds:
// 100µs to 10s, roughly exponential — wide enough for an fsync-bound
// ingest tail, fine enough to resolve a sub-millisecond p50.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram is a fixed-bucket latency histogram. Observe is two atomic
// adds (bucket cell + striped sum); quantiles are estimated at read
// time by linear interpolation inside the covering bucket.
type Histogram struct {
	bounds  []float64 // sorted upper bounds, seconds
	buckets []cell    // len(bounds)+1; last is the +Inf overflow
	sum     [stripes]cell
}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	return &Histogram{bounds: bounds, buckets: make([]cell, len(bounds)+1)}
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	h.ObserveSeconds(d.Seconds())
}

// ObserveSeconds records one observation in seconds.
func (h *Histogram) ObserveSeconds(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].v.Add(1)
	// The sum accumulates integer nanoseconds: float adds cannot be
	// done atomically without a CAS loop, and nanosecond resolution
	// loses nothing for latencies.
	h.sum[stripeIdx()].v.Add(uint64(v * 1e9))
}

// Count is the total number of observations.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.buckets {
		n += h.buckets[i].v.Load()
	}
	return n
}

// Sum is the sum of all observations, in seconds.
func (h *Histogram) Sum() float64 {
	var ns uint64
	for i := range h.sum {
		ns += h.sum[i].v.Load()
	}
	return float64(ns) / 1e9
}

// Quantile estimates the q-quantile (q in [0,1]) in seconds with
// BucketQuantile over the current bucket counts.
func (h *Histogram) Quantile(q float64) float64 {
	counts := make([]uint64, len(h.buckets))
	for i := range h.buckets {
		counts[i] = h.buckets[i].v.Load()
	}
	return BucketQuantile(h.bounds, counts, q)
}

// BucketQuantile estimates the q-quantile (q in [0,1]) of a bucketed
// distribution by linear interpolation within the covering bucket, the
// same estimate Prometheus' histogram_quantile computes from the
// exposition. bounds are the ascending bucket upper edges; counts holds
// one per-bucket (not cumulative) count per bound plus a last one for
// the overflow bucket. Returns 0 with no observations; the overflow
// bucket clamps to its lower bound, having no upper edge to
// interpolate toward.
func BucketQuantile(bounds []float64, counts []uint64, q float64) float64 {
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum float64
	for i, c := range counts {
		next := cum + float64(c)
		if next >= rank && c > 0 {
			lo := 0.0
			if i > 0 {
				lo = bounds[i-1]
			}
			if i == len(bounds) {
				return lo // overflow bucket: clamp
			}
			hi := bounds[i]
			frac := (rank - cum) / float64(c)
			return lo + (hi-lo)*frac
		}
		cum = next
	}
	return bounds[len(bounds)-1]
}

// --- registry ---

// metricKey identifies one instrument: a metric family name plus a
// literal label set like `endpoint="join",code="2xx"` (may be empty).
type metricKey struct {
	name   string
	labels string
}

type gaugeFunc struct {
	key metricKey
	fn  func() float64
}

// Registry collects instruments and renders them as Prometheus text.
// Registration and rendering lock; the instruments themselves never do.
type Registry struct {
	mu       sync.Mutex
	help     map[string]string
	counters map[metricKey]*Counter
	gauges   map[metricKey]*Gauge
	hists    map[metricKey]*Histogram
	funcs    []gaugeFunc
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		help:     map[string]string{},
		counters: map[metricKey]*Counter{},
		gauges:   map[metricKey]*Gauge{},
		hists:    map[metricKey]*Histogram{},
	}
}

// Help sets the HELP line for a metric family.
func (r *Registry) Help(name, text string) {
	r.mu.Lock()
	r.help[name] = text
	r.mu.Unlock()
}

// Counter returns the counter for (name, labels), creating it on first
// use. labels is a literal Prometheus label set without braces, e.g.
// `endpoint="join"`, or empty.
func (r *Registry) Counter(name, labels string) *Counter {
	k := metricKey{name, labels}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[k]
	if !ok {
		c = &Counter{}
		r.counters[k] = c
	}
	return c
}

// Gauge returns the delta-driven gauge for (name, labels), creating it
// on first use.
func (r *Registry) Gauge(name, labels string) *Gauge {
	k := metricKey{name, labels}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[k]
	if !ok {
		g = &Gauge{}
		r.gauges[k] = g
	}
	return g
}

// GaugeFunc registers a gauge whose value is computed at render time —
// for state that already lives elsewhere (sessions in flight, banned
// videos) and would drift if mirrored into a delta gauge.
func (r *Registry) GaugeFunc(name, labels string, fn func() float64) {
	r.mu.Lock()
	r.funcs = append(r.funcs, gaugeFunc{metricKey{name, labels}, fn})
	r.mu.Unlock()
}

// Histogram returns the histogram for (name, labels), creating it with
// the given bucket bounds (nil = DefBuckets) on first use.
func (r *Registry) Histogram(name, labels string, bounds []float64) *Histogram {
	k := metricKey{name, labels}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[k]
	if !ok {
		h = newHistogram(bounds)
		r.hists[k] = h
	}
	return h
}

// fnum formats a float the way Prometheus clients do: shortest
// round-trip representation, +Inf spelled out.
func fnum(v float64) string {
	if math.IsInf(v, +1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// series renders one sample line: name{labels,extra} value.
func series(w io.Writer, name, labels, extra, value string) {
	sep := ""
	if labels != "" && extra != "" {
		sep = ","
	}
	if labels == "" && extra == "" {
		fmt.Fprintf(w, "%s %s\n", name, value)
		return
	}
	fmt.Fprintf(w, "%s{%s%s%s} %s\n", name, labels, sep, extra, value)
}

// Render writes the registry in Prometheus text exposition format.
// Output is deterministic for identical instrument state: families are
// sorted by name, series by label set, so a golden file can pin the
// format.
func (r *Registry) Render(w io.Writer) {
	r.mu.Lock()
	defer r.mu.Unlock()

	type sample struct {
		key  metricKey
		kind string // "counter" | "gauge" | "histogram"
		emit func()
	}
	var samples []sample
	for k, c := range r.counters {
		samples = append(samples, sample{k, "counter", func() {
			series(w, k.name, k.labels, "", strconv.FormatUint(c.Value(), 10))
		}})
	}
	for k, g := range r.gauges {
		samples = append(samples, sample{k, "gauge", func() {
			series(w, k.name, k.labels, "", strconv.FormatInt(g.Value(), 10))
		}})
	}
	for _, gf := range r.funcs {
		samples = append(samples, sample{gf.key, "gauge", func() {
			series(w, gf.key.name, gf.key.labels, "", fnum(gf.fn()))
		}})
	}
	for k, h := range r.hists {
		samples = append(samples, sample{k, "histogram", func() {
			var cum uint64
			for i, b := range h.bounds {
				cum += h.buckets[i].v.Load()
				series(w, k.name+"_bucket", k.labels, `le="`+fnum(b)+`"`, strconv.FormatUint(cum, 10))
			}
			cum += h.buckets[len(h.bounds)].v.Load()
			series(w, k.name+"_bucket", k.labels, `le="+Inf"`, strconv.FormatUint(cum, 10))
			series(w, k.name+"_sum", k.labels, "", fnum(h.Sum()))
			series(w, k.name+"_count", k.labels, "", strconv.FormatUint(cum, 10))
		}})
	}
	sort.Slice(samples, func(i, j int) bool {
		if samples[i].key.name != samples[j].key.name {
			return samples[i].key.name < samples[j].key.name
		}
		return samples[i].key.labels < samples[j].key.labels
	})
	prev := ""
	for _, s := range samples {
		if s.key.name != prev {
			prev = s.key.name
			if help, ok := r.help[s.key.name]; ok {
				fmt.Fprintf(w, "# HELP %s %s\n", s.key.name, help)
			}
			fmt.Fprintf(w, "# TYPE %s %s\n", s.key.name, s.kind)
		}
		s.emit()
	}
}

// ParseHistogram reads one histogram family back from a text
// exposition, the inverse of Render for histograms: it merges every
// `metric_bucket` series whose value for label key passes keep (all
// series of one family share bucket bounds by construction) and
// returns BucketQuantile's inputs — the ascending finite bounds and the
// per-bucket counts, overflow last. A family with no series parses to
// nil slices, whose quantile is 0.
func ParseHistogram(exposition, metric, key string, keep func(value string) bool) (bounds []float64, counts []uint64) {
	byBound := map[float64]uint64{}
	hasInf := false
	var inf uint64
	for _, line := range strings.Split(exposition, "\n") {
		name, labels, v, ok := parseSample(line)
		if !ok || name != metric+"_bucket" || !keep(labelValue(labels, key)) {
			continue
		}
		le := labelValue(labels, "le")
		if le == "+Inf" {
			inf += uint64(v)
			hasInf = true
			continue
		}
		if bound, err := strconv.ParseFloat(le, 64); err == nil {
			byBound[bound] += uint64(v)
		}
	}
	if !hasInf {
		return nil, nil
	}
	for b := range byBound {
		bounds = append(bounds, b)
	}
	sort.Float64s(bounds)
	// The exposition's buckets are cumulative; difference them.
	var prev uint64
	for _, b := range bounds {
		counts = append(counts, byBound[b]-prev)
		prev = byBound[b]
	}
	return bounds, append(counts, inf-prev)
}

// parseSample splits one exposition line into (metric, labels, value),
// reporting ok=false for comments and non-sample lines.
func parseSample(line string) (metric, labels string, value float64, ok bool) {
	if line == "" || strings.HasPrefix(line, "#") {
		return "", "", 0, false
	}
	sp := strings.LastIndexByte(line, ' ')
	if sp < 0 {
		return "", "", 0, false
	}
	v, err := strconv.ParseFloat(line[sp+1:], 64)
	if err != nil {
		return "", "", 0, false
	}
	name := line[:sp]
	if i := strings.IndexByte(name, '{'); i >= 0 {
		if !strings.HasSuffix(name, "}") {
			return "", "", 0, false
		}
		return name[:i], name[i+1 : len(name)-1], v, true
	}
	return name, "", v, true
}

// labelValue extracts one label's value from a rendered label set.
func labelValue(labels, key string) string {
	for _, kv := range strings.Split(labels, ",") {
		if k, v, ok := strings.Cut(kv, "="); ok && k == key {
			return strings.Trim(v, `"`)
		}
	}
	return ""
}

// Handler serves the registry as a Prometheus scrape endpoint.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		var b strings.Builder
		r.Render(&b)
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = io.WriteString(w, b.String())
	})
}
