// Operations: the /metrics telemetry wiring and the admission-control
// middleware.
//
// Every API handler is wrapped by instrument(), which layers (outer to
// inner): graceful-drain refusal of new sessions, the global in-flight
// cap, the per-worker token bucket on session-scoped endpoints, and
// status-class/latency recording into internal/telemetry instruments.
// The hot-path cost with telemetry enabled is a handful of atomic adds
// and two time.Now() calls; the CI benchmark matrix gates that cost at
// <5% of uninstrumented throughput (see cmd/loadgen -bench).
//
// GET /metrics renders the registry in Prometheus text format:
// per-endpoint request counts, status classes and latency histograms
// (plus interpolated p50/p99 gauges), store durability internals
// (journal appends, group-commit window sizes, fsync latency, snapshot
// rotations) fed through the store.Sink adapter, and live quality
// state (sessions in flight, §4.3 verdict tallies, banned videos)
// computed at scrape time from the sharded indexes.
package platform

import (
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/eyeorg/eyeorg/internal/filtering"
	"github.com/eyeorg/eyeorg/internal/telemetry"
	"github.com/eyeorg/eyeorg/internal/trace"
)

// endpoints names every instrumented API route. The list is fixed at
// startup so the hot path indexes pre-registered instruments instead of
// taking the registry lock.
var endpoints = []string{
	"create_campaign", "add_video", "results", "analytics",
	"join", "tests", "video", "flag", "events", "response",
}

// sessionScoped marks the endpoints the per-worker token bucket
// applies to: they carry the session ID in the path, and one session
// belongs to exactly one worker.
var sessionScoped = map[string]bool{"tests": true, "events": true, "response": true}

// windowBuckets sizes the group-commit window histogram in records.
var windowBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

// endpointMetrics is one route's pre-registered instruments.
type endpointMetrics struct {
	codes [5]*telemetry.Counter // status class 1xx..5xx
	lat   *telemetry.Histogram
}

// serverMetrics bundles every instrument the platform records into.
type serverMetrics struct {
	reg      *telemetry.Registry
	byName   map[string]*endpointMetrics
	rejected map[string]*telemetry.Counter // admission rejections by reason
	mutation map[string]*telemetry.Counter // journaled mutations by op
	// stages holds the per-stage ingest latency histograms, populated by
	// registerStageMetrics only when tracing is enabled so a tracing-off
	// server's exposition is byte-identical to previous releases.
	stages [trace.NumStages]*telemetry.Histogram
}

// newServerMetrics builds the registry and pre-registers every
// instrument the request path touches.
func newServerMetrics() *serverMetrics {
	reg := telemetry.NewRegistry()
	m := &serverMetrics{
		reg:      reg,
		byName:   make(map[string]*endpointMetrics, len(endpoints)),
		rejected: map[string]*telemetry.Counter{},
		mutation: map[string]*telemetry.Counter{},
	}
	reg.Help("eyeorg_http_requests_total", "API requests by endpoint and status class.")
	reg.Help("eyeorg_http_request_seconds", "API request latency by endpoint.")
	for _, name := range endpoints {
		em := &endpointMetrics{
			lat: reg.Histogram("eyeorg_http_request_seconds", `endpoint="`+name+`"`, nil),
		}
		for i, class := range []string{"1xx", "2xx", "3xx", "4xx", "5xx"} {
			em.codes[i] = reg.Counter("eyeorg_http_requests_total",
				`endpoint="`+name+`",code="`+class+`"`)
		}
		m.byName[name] = em
	}
	reg.Help("eyeorg_admission_rejected_total", "Requests refused by admission control, by reason.")
	for _, reason := range []string{"inflight", "worker-rate", "body", "drain"} {
		m.rejected[reason] = reg.Counter("eyeorg_admission_rejected_total", `reason="`+reason+`"`)
	}
	reg.Help("eyeorg_mutations_total", "Journaled state mutations applied by this process, by op.")
	for _, op := range []string{opCampaign, opVideo, opSession, opBatch, opResponse, opFlag, opHandoff, opImport} {
		m.mutation[op] = reg.Counter("eyeorg_mutations_total", `op="`+op+`"`)
	}
	return m
}

// registerStageMetrics adds the per-stage ingest latency histograms
// (fed by observeTrace from finished traces). Called only when tracing
// is enabled: without it the exposition carries no stage series at all,
// keeping the tracing-off /metrics golden stable.
func (m *serverMetrics) registerStageMetrics() {
	m.reg.Help("eyeorg_ingest_stage_seconds",
		"Time attributed to each ingest pipeline stage, from retained request traces.")
	for i := 0; i < trace.NumStages; i++ {
		m.stages[i] = m.reg.Histogram("eyeorg_ingest_stage_seconds",
			`stage="`+trace.Stage(i).String()+`"`, nil)
	}
}

// storeSink adapts the journal's telemetry hooks onto the registry; it
// is handed to store.Open so the store stays dependency-free.
type storeSink struct {
	appends  *telemetry.Counter
	bytes    *telemetry.Counter
	windows  *telemetry.Histogram
	fsync    *telemetry.Histogram
	rotation *telemetry.Counter
}

func newStoreSink(reg *telemetry.Registry) *storeSink {
	reg.Help("eyeorg_journal_appends_total", "Records appended to the write-ahead journal.")
	reg.Help("eyeorg_journal_append_bytes_total", "Framed bytes appended to the write-ahead journal.")
	reg.Help("eyeorg_journal_window_records", "Records made durable per commit window (1 outside group commit).")
	reg.Help("eyeorg_journal_fsync_seconds", "Journal fsync latency.")
	reg.Help("eyeorg_journal_snapshots_total", "Snapshot rotations completed.")
	return &storeSink{
		appends:  reg.Counter("eyeorg_journal_appends_total", ""),
		bytes:    reg.Counter("eyeorg_journal_append_bytes_total", ""),
		windows:  reg.Histogram("eyeorg_journal_window_records", "", windowBuckets),
		fsync:    reg.Histogram("eyeorg_journal_fsync_seconds", "", nil),
		rotation: reg.Counter("eyeorg_journal_snapshots_total", ""),
	}
}

func (s *storeSink) JournalAppend(b int)       { s.appends.Inc(); s.bytes.Add(uint64(b)) }
func (s *storeSink) GroupWindow(records int)   { s.windows.ObserveSeconds(float64(records)) }
func (s *storeSink) FsyncDone(d time.Duration) { s.fsync.Observe(d) }
func (s *storeSink) SnapshotRotate()           { s.rotation.Inc() }

// blobSink adapts the video blob store's telemetry hooks onto the
// registry, the same shape as storeSink: the blob subsystem stays
// dependency-free and the platform owns the metric names.
type blobSink struct {
	puts         *telemetry.Counter
	putBytes     *telemetry.Counter
	hits         *telemetry.Counter
	hitBytes     *telemetry.Counter
	misses       *telemetry.Counter
	evictions    *telemetry.Counter
	evictedBytes *telemetry.Counter
}

func newBlobSink(reg *telemetry.Registry) *blobSink {
	reg.Help("eyeorg_blob_puts_total", "Video blobs stored (deduplicated uploads excluded).")
	reg.Help("eyeorg_blob_put_bytes_total", "Bytes of video blobs stored.")
	reg.Help("eyeorg_blobcache_hits_total", "Video byte-cache hits.")
	reg.Help("eyeorg_blobcache_hit_bytes_total", "Bytes served from the video byte cache.")
	reg.Help("eyeorg_blobcache_misses_total", "Video byte-cache misses (doorkeeper rejections included).")
	reg.Help("eyeorg_blobcache_evictions_total", "Entries evicted from the video byte cache.")
	reg.Help("eyeorg_blobcache_evicted_bytes_total", "Bytes evicted from the video byte cache.")
	return &blobSink{
		puts:         reg.Counter("eyeorg_blob_puts_total", ""),
		putBytes:     reg.Counter("eyeorg_blob_put_bytes_total", ""),
		hits:         reg.Counter("eyeorg_blobcache_hits_total", ""),
		hitBytes:     reg.Counter("eyeorg_blobcache_hit_bytes_total", ""),
		misses:       reg.Counter("eyeorg_blobcache_misses_total", ""),
		evictions:    reg.Counter("eyeorg_blobcache_evictions_total", ""),
		evictedBytes: reg.Counter("eyeorg_blobcache_evicted_bytes_total", ""),
	}
}

func (b *blobSink) BlobPut(n int64) { b.puts.Inc(); b.putBytes.Add(uint64(n)) }
func (b *blobSink) CacheHit(n int)  { b.hits.Inc(); b.hitBytes.Add(uint64(n)) }
func (b *blobSink) CacheMiss()      { b.misses.Inc() }
func (b *blobSink) CacheEvict(entries int, bytes int64) {
	b.evictions.Add(uint64(entries))
	b.evictedBytes.Add(uint64(bytes))
}

// registerStateGauges exposes live platform state as scrape-time
// gauges. The callbacks walk the sharded indexes under per-shard read
// locks — a scrape serializes with nothing beyond the shard it is
// currently reading.
func (s *Server) registerStateGauges() {
	reg := s.metrics.reg
	reg.Help("eyeorg_campaigns", "Campaigns stored.")
	reg.GaugeFunc("eyeorg_campaigns", "", func() float64 { return float64(s.campaigns.Len()) })
	reg.Help("eyeorg_videos", "Videos stored.")
	reg.GaugeFunc("eyeorg_videos", "", func() float64 { return float64(s.videos.Len()) })
	reg.Help("eyeorg_sessions", "Sessions ever joined.")
	reg.GaugeFunc("eyeorg_sessions", "", func() float64 { return float64(s.joined.Load()) })
	reg.Help("eyeorg_sessions_inflight", "Joined sessions not yet completed.")
	reg.GaugeFunc("eyeorg_sessions_inflight", "", func() float64 {
		return float64(s.joined.Load() - s.completedN.Load())
	})
	reg.Help("eyeorg_http_inflight", "API requests currently being served.")
	reg.GaugeFunc("eyeorg_http_inflight", "", func() float64 {
		return float64(s.admission.inflight.Load())
	})
	reg.Help("eyeorg_draining", "1 while the server refuses new sessions ahead of shutdown.")
	reg.GaugeFunc("eyeorg_draining", "", func() float64 {
		if s.admission.draining.Load() {
			return 1
		}
		return 0
	})
	reg.Help("eyeorg_blob_bytes", "Bytes of content-addressed video blobs stored.")
	reg.GaugeFunc("eyeorg_blob_bytes", "", func() float64 { return float64(s.blobs.TotalBytes()) })
	reg.Help("eyeorg_blobs", "Content-addressed video blobs stored.")
	reg.GaugeFunc("eyeorg_blobs", "", func() float64 { return float64(s.blobs.Len()) })
	reg.Help("eyeorg_blobcache_entries", "Entries resident in the video byte cache.")
	reg.GaugeFunc("eyeorg_blobcache_entries", "", func() float64 {
		entries, _ := s.blobs.CacheStats()
		return float64(entries)
	})
	reg.Help("eyeorg_blobcache_resident_bytes", "Bytes resident in the video byte cache.")
	reg.GaugeFunc("eyeorg_blobcache_resident_bytes", "", func() float64 {
		_, bytes := s.blobs.CacheStats()
		return float64(bytes)
	})
	reg.Help("eyeorg_videos_banned", "Videos currently banned by participant flags.")
	reg.GaugeFunc("eyeorg_videos_banned", "", func() float64 {
		var n int
		s.videos.Range(func(_ string, v *videoState) bool {
			if v.Banned {
				n++
			}
			return true
		})
		return float64(n)
	})
	reg.Help("eyeorg_quality_verdicts", "Completed sessions by live §4.3 filter verdict, across campaigns.")
	// All five verdict gauges come from one walk over the campaign
	// shards: the callbacks fire together inside a single Render, so a
	// short-lived memo turns five full Range passes per scrape into one
	// without tying the gauges to the registry's invocation order.
	var (
		verdictMu  sync.Mutex
		verdictAt  time.Time
		verdictSum filtering.Summary
	)
	tally := func(verdict filtering.Reason) float64 {
		verdictMu.Lock()
		defer verdictMu.Unlock()
		if time.Since(verdictAt) > 250*time.Millisecond {
			verdictSum = filtering.Summary{}
			s.campaigns.Range(func(_ string, c *campaignState) bool {
				sum := c.analytics.Summary()
				verdictSum.Kept += sum.Kept
				verdictSum.EngagementSeeks += sum.EngagementSeeks
				verdictSum.EngagementFocus += sum.EngagementFocus
				verdictSum.Soft += sum.Soft
				verdictSum.Control += sum.Control
				return true
			})
			verdictAt = time.Now()
		}
		switch verdict {
		case filtering.Kept:
			return float64(verdictSum.Kept)
		case filtering.DropEngagementSeeks:
			return float64(verdictSum.EngagementSeeks)
		case filtering.DropEngagementFocus:
			return float64(verdictSum.EngagementFocus)
		case filtering.DropSoft:
			return float64(verdictSum.Soft)
		default:
			return float64(verdictSum.Control)
		}
	}
	for r := filtering.Kept; r <= filtering.DropControl; r++ {
		verdict := r
		reg.GaugeFunc("eyeorg_quality_verdicts", `verdict="`+verdict.String()+`"`, func() float64 {
			return tally(verdict)
		})
	}
}

// countMutation records one live (non-replay) mutation of the given op.
func (s *Server) countMutation(op string) {
	if s.metrics != nil && !s.replaying {
		s.metrics.mutation[op].Inc()
	}
}

// --- admission control ---

// admission is the backpressure layer in front of every handler: a
// global in-flight cap, a per-worker token bucket on session-scoped
// endpoints, and the drain latch. The zero value admits everything.
type admission struct {
	maxInflight int64   // 0 = unlimited
	rate        float64 // tokens/sec per worker; 0 = unlimited
	burst       float64
	inflight    atomic.Int64
	draining    atomic.Bool

	// buckets holds one token bucket per active session key. bucketN
	// approximates the population so a crowd of one-shot sessions
	// cannot grow the map without bound: past bucketCap the whole map
	// resets, which at worst briefly refills every active bucket.
	buckets sync.Map
	bucketN atomic.Int64
}

const bucketCap = 1 << 16

type tokenBucket struct {
	mu     sync.Mutex
	tokens float64
	last   time.Time
}

// admit charges one token from key's bucket, reporting how long the
// caller should wait when the bucket is dry.
func (a *admission) admit(key string) (ok bool, retryAfter time.Duration) {
	return a.admitN(key, 1)
}

// admitN charges n tokens from key's bucket — the per-record accounting
// binary batches use, so a 500-record batch drains the worker's bucket
// like 500 single-event requests would. A batch larger than the burst
// capacity can never hold n tokens; it is admitted only against a FULL
// bucket and leaves it in debt (negative), which keeps such batches
// possible while bounding the worker's sustained record rate at the
// configured tokens/sec: the debt must refill before the next request
// passes. Reports how long the caller should wait when refused.
func (a *admission) admitN(key string, n float64) (ok bool, retryAfter time.Duration) {
	v, loaded := a.buckets.Load(key)
	if !loaded {
		if a.bucketN.Load() > bucketCap {
			a.buckets.Range(func(k, _ any) bool { a.buckets.Delete(k); return true })
			a.bucketN.Store(0)
		}
		v, loaded = a.buckets.LoadOrStore(key, &tokenBucket{tokens: a.burst, last: time.Now()})
		if !loaded {
			a.bucketN.Add(1)
		}
	}
	b := v.(*tokenBucket)
	b.mu.Lock()
	defer b.mu.Unlock()
	now := time.Now()
	b.tokens = math.Min(a.burst, b.tokens+now.Sub(b.last).Seconds()*a.rate)
	b.last = now
	need := math.Min(n, a.burst)
	if b.tokens >= need {
		b.tokens -= n
		return true, 0
	}
	wait := time.Duration((need - b.tokens) / a.rate * float64(time.Second))
	return false, wait
}

// StartDrain flips the server into drain mode: new sessions are
// refused with 503 + Retry-After while every other endpoint keeps
// serving, so participants already mid-assignment can finish their
// requests before the listener shuts down. Close (after the HTTP
// server has drained) flushes the group-commit window.
func (s *Server) StartDrain() { s.admission.draining.Store(true) }

// Draining reports whether StartDrain has been called.
func (s *Server) Draining() bool { return s.admission.draining.Load() }

// SessionsInFlight counts joined sessions whose assignment is not yet
// fully answered — what a draining server waits on before shutting its
// listener, so participants mid-assignment can finish. Abandoned
// sessions never leave this count, so drain loops pair it with
// RequestsInFlight to detect quiescence instead of waiting it to zero.
func (s *Server) SessionsInFlight() int64 {
	return s.joined.Load() - s.completedN.Load()
}

// RequestsInFlight counts API requests currently being served. It
// reads the same counter the in-flight cap charges; on a server with
// neither a cap nor telemetry the counter is not maintained and this
// reports 0 — check TracksRequests before treating 0 as quiescence.
func (s *Server) RequestsInFlight() int64 {
	return s.admission.inflight.Load()
}

// TracksRequests reports whether the in-flight request counter is
// maintained: true with telemetry enabled or an in-flight cap set.
func (s *Server) TracksRequests() bool {
	return s.metrics != nil || s.admission.maxInflight > 0
}

// retryAfterSeconds renders a Retry-After header value, at least 1s.
func retryAfterSeconds(d time.Duration) string {
	secs := int(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// reject answers an admission refusal and counts it.
func (s *Server) reject(w http.ResponseWriter, status int, reason, msg string, retryAfter time.Duration) {
	if s.metrics != nil {
		s.metrics.rejected[reason].Inc()
	}
	w.Header().Set("Retry-After", retryAfterSeconds(retryAfter))
	writeErr(w, status, msg)
}

// statusRecorder captures the status code a handler writes and carries
// the request's trace to the handler. The trace rides here — a struct
// tracing allocates anyway — instead of the request context, because
// r.WithContext clones the entire http.Request, and one clone per
// request costs several percent of a mem-mode ingest request: real
// money under the bench's tracing overhead gate.
type statusRecorder struct {
	http.ResponseWriter
	status int
	tr     *trace.Trace
}

// requestTrace recovers the trace instrument() attached to this
// request's response writer; nil when tracing is off or the writer is
// unwrapped.
func requestTrace(w http.ResponseWriter) *trace.Trace {
	if rec, ok := w.(*statusRecorder); ok {
		return rec.tr
	}
	return nil
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.ResponseWriter.Write(b)
}

// ReadFrom forwards to the wrapped writer's io.ReaderFrom when it has
// one, so instrumented video responses keep net/http's sendfile path (a
// plain wrapper would demote io.Copy from ServeContent to a userspace
// loop).
func (r *statusRecorder) ReadFrom(src io.Reader) (int64, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	if rf, ok := r.ResponseWriter.(io.ReaderFrom); ok {
		return rf.ReadFrom(src)
	}
	// The struct wrapper hides ReadFrom so io.Copy cannot recurse here.
	return io.Copy(struct{ io.Writer }{r.ResponseWriter}, src)
}

// instrument wraps one API handler with admission control and, when
// telemetry is enabled, status/latency recording. With tracing enabled
// it also owns the trace lifecycle: a trace starts before the admission
// gates (so rejected requests show up as admission-heavy traces),
// travels to the handler on the status recorder (see requestTrace),
// and finishes with the recorded status after the handler returns.
func (s *Server) instrument(name string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		tr := s.startTrace(name, r)
		var rec *statusRecorder
		if s.metrics != nil || tr != nil {
			rec = &statusRecorder{ResponseWriter: w, tr: tr}
			w = rec
		}
		if tr != nil {
			defer func() {
				status := http.StatusOK
				if rec.status != 0 {
					status = rec.status
				}
				s.tracer.Finish(tr, status)
			}()
		}
		a := &s.admission
		if a.draining.Load() && name == "join" {
			s.reject(w, http.StatusServiceUnavailable, "drain",
				"server is draining; not admitting new sessions", 5*time.Second)
			return
		}
		// The in-flight count is a shared atomic every request would
		// bump twice; touch it only when something reads it — the cap
		// check, the eyeorg_http_inflight gauge (telemetry on), or the
		// drain loop's quiescence probe (also gauge-gated). A bare
		// uncapped, untelemetered server pays nothing.
		if a.maxInflight > 0 || s.metrics != nil {
			if n := a.inflight.Add(1); a.maxInflight > 0 && n > a.maxInflight {
				a.inflight.Add(-1)
				s.reject(w, http.StatusTooManyRequests, "inflight",
					"server at capacity", time.Second)
				return
			}
			defer a.inflight.Add(-1)
		}
		if a.rate > 0 && sessionScoped[name] {
			if ok, wait := a.admit(r.PathValue("id")); !ok {
				s.reject(w, http.StatusTooManyRequests, "worker-rate",
					"per-worker rate exceeded", wait)
				return
			}
		}
		tr.Mark(trace.StageAdmission)
		if s.metrics == nil {
			h(w, r)
			return
		}
		em := s.metrics.byName[name]
		start := time.Now()
		h(w, r)
		em.lat.Observe(time.Since(start))
		class := rec.status/100 - 1
		if class < 0 || class >= len(em.codes) {
			class = 4 // treat unwritten/invalid statuses as 5xx
		}
		em.codes[class].Inc()
	}
}

// Metrics returns the server's telemetry registry (nil when telemetry
// is disabled) so embedders can add their own instruments or serve the
// exposition elsewhere.
func (s *Server) Metrics() *telemetry.Registry {
	if s.metrics == nil {
		return nil
	}
	return s.metrics.reg
}
