// Benchmark mode (-bench): the in-process gate matrix CI runs against
// the committed BENCH_platform.json. Requests dispatch straight into
// the handler stack, so this is not an end-to-end benchmark (that is
// crowdbench/, over loopback with the client in its own process); it
// exists to keep a dozen regression gates cheap and stable.
//
// The bench is two tables and one loop over each:
//
//   - benchRows, the scenario table. Each row boots a fresh target per
//     trial leg (one in-process server with the row's platform.Options,
//     or a cluster behind the router), drives it (the persona lifecycle
//     through runLoad, a nullWriter hammer, or the decision crowd),
//     checks the leg's health, and runs the twins it asks for: a
//     telemetry-off twin and a tracing-on twin, back to back with the
//     instrumented leg so host drift lands on both sides of the
//     overhead deltas. Each row reports its median-throughput trial.
//     Rows marked pairNext run trial-interleaved with the next row, so
//     drift also cancels out of the pair's headline speedup.
//   - benchGates, the gate table. Each row reads one number from the
//     finished report (and, for the baseline rows, from -bench-compare's
//     report) and holds it to a floor or a ceiling.
//
// Every leg starts with a warmup ramp (benchWarmup) that drives the
// full workload without recording stats, so cold-start effects never
// land in the percentiles.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"github.com/eyeorg/eyeorg/internal/cluster"
	"github.com/eyeorg/eyeorg/internal/parallel"
	"github.com/eyeorg/eyeorg/internal/platform"
	"github.com/eyeorg/eyeorg/internal/trace"
	"github.com/eyeorg/eyeorg/internal/wire"
)

type benchSettings struct {
	kind        string
	concurrency int
	duration    time.Duration
	sessions    int
	seed        int64
	shards      int
	payloads    [][]byte
	trials      int
	// dataDir is the parent for the per-leg journal directories.
	// Empty falls back to the OS temp dir — which on distros with a
	// tmpfs /tmp measures RAM, not storage; point it at a real disk
	// when the fsync numbers matter.
	dataDir   string
	out       string
	baseline  string
	tolerance float64
	// overheadTol is the fractional throughput cost telemetry or tracing
	// may have over the twin without it before the bench fails (<0
	// disables the twins and their gates).
	overheadTol float64
}

// benchTarget is the base URL direct dispatch ignores but requests need.
const benchTarget = "http://bench.local"

// directTransport dispatches requests straight into the handler on the
// caller's goroutine. It takes the TCP stack — whose scheduling tail
// drowns the storage signal on small hosts — out of the measurement,
// so the numbers profile the ingest pipeline (handlers, shard locks,
// journal, fsync) itself.
type directTransport struct{ h http.Handler }

func (d directTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	d.h.ServeHTTP(rec, req)
	resp := rec.Result()
	resp.Request = req
	return resp, nil
}

// benchEndpoint is one endpoint's latency profile.
type benchEndpoint struct {
	Requests int     `json:"requests"`
	P50Ms    float64 `json:"p50_ms"`
	P90Ms    float64 `json:"p90_ms"`
	P99Ms    float64 `json:"p99_ms"`
	MaxMs    float64 `json:"max_ms"`
}

// benchScenario is one scenario row's result.
type benchScenario struct {
	Name    string `json:"name"`
	Persist bool   `json:"persist"`
	Fsync   bool   `json:"fsync"`
	// Concurrency is the driver worker count this scenario actually ran
	// with: pure-CPU scenarios are capped by cpuConcurrency, the disk-
	// backed ones keep the requested -concurrency.
	Concurrency  int                      `json:"concurrency"`
	GroupCommit  bool                     `json:"group_commit"`
	DurationS    float64                  `json:"duration_s"`
	Sessions     int64                    `json:"sessions"`
	Completed    int64                    `json:"completed"`
	Errors       int64                    `json:"errors"`
	Requests     int                      `json:"requests"`
	SessionsPerS float64                  `json:"sessions_per_s"`
	RequestsPerS float64                  `json:"requests_per_s"`
	IngestP50Ms  float64                  `json:"ingest_p50_ms"`
	IngestP99Ms  float64                  `json:"ingest_p99_ms"`
	Endpoints    map[string]benchEndpoint `json:"endpoints"`
	// ServerIngestP99Ms is the ingest p99 the server itself reported
	// via /metrics at the end of the run — the cross-check that the
	// self-reported latency tracks the client-observed IngestP99Ms.
	ServerIngestP99Ms float64 `json:"server_ingest_p99_ms,omitempty"`
	// VideoP50Ms/VideoP99Ms (video-heavy only) profile all video GETs
	// combined — conditional, full and Range — the numbers the p99
	// budget gates on.
	VideoP50Ms float64 `json:"video_p50_ms,omitempty"`
	VideoP99Ms float64 `json:"video_p99_ms,omitempty"`
	// UninstrumentedRequestsPerS is the telemetry-off twin's throughput;
	// TelemetryOverheadPct is the throughput cost of instrumentation
	// relative to it (positive = telemetry slower).
	UninstrumentedRequestsPerS float64 `json:"uninstrumented_requests_per_s,omitempty"`
	TelemetryOverheadPct       float64 `json:"telemetry_overhead_pct,omitempty"`
	// TracedRequestsPerS is the tracing twin: the same scenario with
	// every request stage-stamped (retaining the row's traceTwin
	// fraction); TracingOverheadPct is its throughput cost relative to
	// the tracing-off instrumented run (positive = tracing slower).
	TracedRequestsPerS float64 `json:"traced_requests_per_s,omitempty"`
	TracingOverheadPct float64 `json:"tracing_overhead_pct,omitempty"`
	// RecordsPerS (ingest-path scenarios only) is decoded interaction
	// records per second — the unit that makes json-events and
	// binary-batch comparable: one binary request carries
	// ingestBatchRecords records, one JSON request carries one.
	RecordsPerS float64 `json:"records_per_s,omitempty"`
	// StageP99Ms (tracing twin only) is the per-stage p99 breakdown of
	// the ingest routes, read back from the server's /debug/traces ring
	// at the end of the run. StageSumP99Ms sums the per-stage p99s and
	// TraceTotalP99Ms is the p99 of whole-trace durations — the
	// checkpoint model tiles wall time, so the sum must account for the
	// e2e latency (a gate holds it at ≥90%), not merely decorate it.
	StageP99Ms      map[string]float64 `json:"stage_p99_ms,omitempty"`
	StageSumP99Ms   float64            `json:"stage_sum_p99_ms,omitempty"`
	TraceTotalP99Ms float64            `json:"trace_total_p99_ms,omitempty"`
	// SessionsToDecision (decision rows only) is how many sessions the
	// campaign consumed before its verdict was available: the fixed
	// budget for fixed-campaign, the stopper's closing point for
	// adaptive-campaign. These rows measure sample efficiency, not
	// throughput, so their RequestsPerS stays zero.
	SessionsToDecision int `json:"sessions_to_decision,omitempty"`
}

// benchReport is the -bench-out document.
type benchReport struct {
	Kind        string  `json:"kind"`
	Concurrency int     `json:"concurrency"`
	Videos      int     `json:"videos"`
	Seed        int64   `json:"seed"`
	Trials      int     `json:"trials"`
	DurationS   float64 `json:"target_duration_s"`
	// FsyncIngestP99Speedup is per-record fsync ingest p99 divided by
	// group-commit fsync ingest p99 — the headline group-commit win.
	FsyncIngestP99Speedup float64 `json:"fsync_ingest_p99_speedup"`
	// BinaryBatchSpeedup is binary-batch records/s divided by
	// json-events records/s — the headline wire-protocol win.
	BinaryBatchSpeedup float64 `json:"binary_batch_speedup"`
	// SessionsToDecisionSpeedup is fixed-campaign sessions-to-decision
	// divided by adaptive-campaign sessions-to-decision on the synthetic
	// high-agreement crowd — the headline adaptive-stopping win.
	SessionsToDecisionSpeedup float64 `json:"sessions_to_decision_speedup,omitempty"`
	// ClusterSessionSpeedup is cluster-3node sessions/s divided by
	// single-node sessions/s, both fsync-record — the headline scale-out
	// win.
	ClusterSessionSpeedup float64         `json:"cluster_session_speedup,omitempty"`
	Scenarios             []benchScenario `json:"scenarios"`
}

const (
	// maxLatencySkew is the p99/p50 ceiling on the in-memory scenarios'
	// endpoints. With no device in the path every endpoint is pure CPU,
	// and a 1000x spread means the clock caught something that is not
	// steady-state serving — a cold-start decode, a ramp, a stalled
	// worker. The committed baseline once recorded a 243ms join p99
	// against a 0.025ms p50, put there by first-fetch video decodes
	// running inside the measured window.
	maxLatencySkew = 1000
	// videoReqFloor is the video-heavy scenario's absolute throughput
	// gate: the content-addressed read path must clear 100k req/s on
	// the in-memory tier, every run, regardless of baseline.
	videoReqFloor = 100_000
	// videoP99BudgetMs pins video-serving tail latency to the video
	// endpoint p99 the pre-blob-store baseline measured (0.303ms): the
	// cache rework may not buy throughput with tail latency.
	videoP99BudgetMs = 0.303
	// ingestBatchRecords is the flush size the ingest-path scenarios
	// drive: one binary request per 64 records vs 64 JSON requests.
	ingestBatchRecords = 64
	// binaryBatchFloor is the minimum records/s multiple the binary
	// batch path must hold over per-event JSON — the gate that keeps the
	// wire protocol earning its complexity. One request instead of 64
	// amortizes the whole HTTP/mux/trace overhead and takes the session
	// shard lock once, so well under 2x means the decoder or the batch
	// apply path regressed.
	binaryBatchFloor = 1.5
	// fixedCampaignSessions is the fixed leg's session budget — roughly
	// the ~100 sessions per campaign the paper's deployment collects
	// before analysis.
	fixedCampaignSessions = 100
	// adaptiveSessionCap bounds the adaptive leg in case the stopper
	// never closes (which itself fails the speedup gate).
	adaptiveSessionCap = 2 * fixedCampaignSessions
	// decisionHalfWidthS is the decision pair's stopping target: the
	// per-video 95% CI must shrink to ±0.25s of user-perceived load
	// time, comfortably inside the synthetic crowd's ±0.1s agreement.
	decisionHalfWidthS = 0.25
	// adaptiveDecisionFloor is the minimum sessions-to-decision multiple
	// adaptive stopping must save over the fixed budget on the
	// high-agreement crowd. VidPlat reports order-of-magnitude savings;
	// 2x is the floor under which the subsystem stops earning its keep.
	adaptiveDecisionFloor = 2.0
	// clusterSyncFloor is the modeled device-flush latency both legs of
	// the scale-out pair run under (store.Options.SyncDelay). CI hosts
	// put every node's WAL on one filesystem whose journal thread
	// partially serializes cross-file fsyncs and whose write cache makes
	// a flush nearly free — both artifacts of the shared host, not of
	// the deployment the pair prices, where each node owns its own disk.
	// A fixed 2ms flush (ordinary SATA/network-volume territory) makes
	// each node's durability pipeline cost what an independent device
	// would, so the measured speedup reflects partitioning, not the
	// host's cache.
	clusterSyncFloor = 2 * time.Millisecond
	// clusterSessionFloor is the minimum session-throughput multiple the
	// 3-node cluster must hold over a single node, both in per-record
	// fsync mode — the durability configuration where scale-out pays:
	// each node owns an independent fsync pipeline, so three nodes run
	// three flushes in parallel where one node serializes them. Router
	// proxying, window shipping to the followers, and imperfect campaign
	// balance all eat into the ideal 3x; under 2.2x the partitioning
	// stops earning its keep.
	clusterSessionFloor = 2.2
	// stageCoverageFloorPct is how much of the durable scenario's e2e
	// trace p99 the per-stage p99 sum must account for — the proof that
	// the checkpoint stages tile the latency they claim to explain.
	stageCoverageFloorPct = 90
)

// benchRow is one row of the scenario table.
type benchRow struct {
	name string
	// opts configures the row's target; runLeg adds what every leg
	// shares (shards, telemetry, tracing, seeds, no auto-snapshots, the
	// journal directory).
	opts    platform.Options
	persist bool // journal to a fresh directory under -data-dir
	// nodes > 1 boots an in-process cluster of that many nodes behind
	// the router instead of one server. Rows that set nodes form the
	// scale-out pair: they spread the crowd over a campaign set, and the
	// one-node leg runs second in each trial to replay the campaign
	// count its cluster partner needed to cover every node.
	nodes   int
	drive   func(l *benchLeg) (benchScenario, error)
	healthy func(sc benchScenario) bool
	// plainTwin and traceTwin add a telemetry-off twin and a tracing-on
	// twin (retaining that fraction of requests) to every trial while
	// -bench-overhead-tolerance is armed.
	plainTwin bool
	traceTwin float64
	// trials overrides -bench-trials; twinTrials adds trials while the
	// twins run, for the row the overhead gates read (a median over 3
	// paired ratios is one unlucky GC cycle from a phantom failure).
	trials, twinTrials int
	pairNext           bool // runs trial-interleaved with the next row
	baseline           bool // gated against -bench-compare
}

// benchRows is the scenario table, in report order.
var benchRows = []benchRow{
	// The durability matrix: the identical persona lifecycle against
	// in-memory, buffered WAL, per-record fsync, and opportunistic and
	// windowed group-commit fsync. The tracing twin runs on mem, where
	// the pure-CPU stamping cost is proportionally largest (at the
	// production 1% retention: the always-on cost is stamping, which the
	// sample rate does not amortize), and on the windowed scenario —
	// the durable ingest configuration — retaining every request so its
	// per-stage breakdown sees a dense capture. mem is not baseline-
	// gated: it is the ceiling the others normalize by, and a foreign
	// machine's absolute req/s is noise. fsync-record is not gated
	// either: its serialized fsync queue swings >30% run to run, and
	// the gated scenarios cover the same append path.
	{name: "mem", drive: driveLifecycle, healthy: lifecycleHealthy,
		plainTwin: true, traceTwin: 0.01, twinTrials: 2},
	{name: "wal", persist: true, drive: driveLifecycle, healthy: lifecycleHealthy,
		plainTwin: true, baseline: true},
	{name: "fsync-record", persist: true, opts: platform.Options{Fsync: true},
		drive: driveLifecycle, healthy: lifecycleHealthy, plainTwin: true},
	{name: "fsync-group", persist: true, opts: platform.Options{Fsync: true, GroupCommit: true},
		drive: driveLifecycle, healthy: lifecycleHealthy, plainTwin: true, baseline: true},
	{name: "fsync-group-window", persist: true, opts: platform.Options{Fsync: true, GroupCommit: true,
		GroupMaxDelay: 2 * time.Millisecond, GroupMaxBatch: 64},
		drive: driveLifecycle, healthy: lifecycleHealthy, plainTwin: true, traceTwin: 1, baseline: true},
	// The content-addressed video read path alone.
	{name: "video-heavy", drive: driveVideo, healthy: sessionlessHealthy,
		plainTwin: true, baseline: true},
	// The EYB1 wire protocol: the identical 64-record flush as
	// per-record JSON POSTs and as one binary batch POST.
	{name: "json-events", drive: driveIngest(false), healthy: sessionlessHealthy,
		pairNext: true, baseline: true},
	{name: "binary-batch", drive: driveIngest(true), healthy: sessionlessHealthy, baseline: true},
	// Adaptive stopping, priced in sessions: one trial each, because the
	// drive is single-threaded and seeded, so reruns are bit-identical.
	{name: "fixed-campaign", drive: driveDecision, healthy: decisionHealthy, trials: 1},
	{name: "adaptive-campaign", opts: platform.Options{Adaptive: true, CIHalfWidth: decisionHalfWidthS},
		drive: driveDecision, healthy: decisionHealthy, trials: 1},
	// Campaign partitioning: the persona crowd against one per-record
	// fsync node and a 3-node cluster. Their device variance matches
	// fsync-record's, so the pair's gate is its speedup, not a baseline.
	{name: "single-node", persist: true, nodes: 1, opts: platform.Options{Fsync: true, SyncDelay: clusterSyncFloor},
		drive: driveLifecycle, healthy: lifecycleHealthy, pairNext: true},
	{name: "cluster-3node", persist: true, nodes: 3, opts: platform.Options{Fsync: true, SyncDelay: clusterSyncFloor},
		drive: driveLifecycle, healthy: lifecycleHealthy},
}

// Health checks: a leg that errored, or measured nothing, fails the run.
func lifecycleHealthy(sc benchScenario) bool   { return sc.Errors == 0 && sc.Completed > 0 }
func sessionlessHealthy(sc benchScenario) bool { return sc.Errors == 0 && sc.Requests > 0 }
func decisionHealthy(sc benchScenario) bool    { return sc.Errors == 0 && sc.SessionsToDecision > 0 }

// benchGate is one row of the gate table.
type benchGate struct {
	name string
	// value reads the gated number from the run's report and, for the
	// baseline rows, the -bench-compare report; ok=false means the run
	// did not measure it (twins off, no baseline) and skips the gate.
	value   func(cur, base *benchReport) (v float64, ok bool)
	ceiling bool // the value must stay ≤ limit; otherwise ≥ limit
	limit   func(set benchSettings) float64
}

// benchGates is the gate table: the fixed gates, then one baseline
// gate per baseline row of benchRows.
var benchGates = append([]benchGate{
	{"mem latency skew", latencySkew("mem"), true, fixed(maxLatencySkew)},
	{"video-heavy latency skew", latencySkew("video-heavy"), true, fixed(maxLatencySkew)},
	{"video-heavy req/s", field("video-heavy", func(sc *benchScenario) (float64, bool) { return sc.RequestsPerS, true }),
		false, fixed(videoReqFloor)},
	{"video-heavy video p99 ms", field("video-heavy", func(sc *benchScenario) (float64, bool) { return sc.VideoP99Ms, true }),
		true, fixed(videoP99BudgetMs)},
	{"binary_batch_speedup", headline(func(r *benchReport) float64 { return r.BinaryBatchSpeedup }),
		false, fixed(binaryBatchFloor)},
	{"sessions_to_decision_speedup", headline(func(r *benchReport) float64 { return r.SessionsToDecisionSpeedup }),
		false, fixed(adaptiveDecisionFloor)},
	{"cluster_session_speedup", headline(func(r *benchReport) float64 { return r.ClusterSessionSpeedup }),
		false, fixed(clusterSessionFloor)},
	// The overhead gates read mem only: instrumentation cost is a pure
	// CPU effect, proportionally largest and least noisy there. The
	// disk-backed scenarios swing ±20% with device noise, which would
	// drown a 5% gate; their overheads are reported, not gated.
	{"mem telemetry overhead %", field("mem", func(sc *benchScenario) (float64, bool) {
		return sc.TelemetryOverheadPct, sc.UninstrumentedRequestsPerS > 0
	}), true, overheadLimit},
	{"mem tracing overhead %", field("mem", func(sc *benchScenario) (float64, bool) {
		return sc.TracingOverheadPct, sc.TracedRequestsPerS > 0
	}), true, overheadLimit},
	{"fsync-group-window stage coverage %", field("fsync-group-window", func(sc *benchScenario) (float64, bool) {
		return sc.StageSumP99Ms / sc.TraceTotalP99Ms * 100, sc.TraceTotalP99Ms > 0
	}), false, fixed(stageCoverageFloorPct)},
}, baselineGates()...)

// baselineGates gates each baseline row's throughput against the
// -bench-compare report: the row passes if EITHER its absolute req/s
// OR its req/s relative to the same run's mem ceiling holds within
// -bench-tolerance. A genuine storage regression (a window
// accidentally serialized, an ack held under a lock) tanks both;
// machine or device noise rarely tanks both in one run, and the
// mem-relative ratio keeps the gate meaningful on a host whose absolute
// speed differs from the baseline machine's.
func baselineGates() []benchGate {
	var gates []benchGate
	for _, row := range benchRows {
		if !row.baseline {
			continue
		}
		name := row.name
		gates = append(gates, benchGate{"baseline " + name + " req/s", func(cur, base *benchReport) (float64, bool) {
			if base == nil {
				return 0, false
			}
			sc, b := cur.scenario(name), base.scenario(name)
			if sc == nil || b == nil || b.RequestsPerS <= 0 {
				return 0, false
			}
			v := sc.RequestsPerS / b.RequestsPerS
			if curMem, baseMem := cur.scenario("mem"), base.scenario("mem"); curMem != nil && baseMem != nil &&
				curMem.RequestsPerS > 0 && baseMem.RequestsPerS > 0 {
				v = math.Max(v, sc.RequestsPerS/curMem.RequestsPerS/(b.RequestsPerS/baseMem.RequestsPerS))
			}
			return v, true
		}, false, func(set benchSettings) float64 { return 1 - set.tolerance }})
	}
	return gates
}

func fixed(v float64) func(benchSettings) float64 { return func(benchSettings) float64 { return v } }

func overheadLimit(set benchSettings) float64 { return set.overheadTol * 100 }

// field reads a gate value from one named scenario.
func field(name string, f func(sc *benchScenario) (float64, bool)) func(cur, base *benchReport) (float64, bool) {
	return func(cur, _ *benchReport) (float64, bool) {
		if sc := cur.scenario(name); sc != nil {
			return f(sc)
		}
		return 0, false
	}
}

// headline reads one of the report's speedup ratios, zero when its
// denominator scenario measured nothing.
func headline(f func(r *benchReport) float64) func(cur, base *benchReport) (float64, bool) {
	return func(cur, _ *benchReport) (float64, bool) { return f(cur), f(cur) > 0 }
}

// latencySkew is the scenario's worst endpoint p99/p50 over endpoints
// with enough requests for a meaningful p99.
func latencySkew(name string) func(cur, base *benchReport) (float64, bool) {
	return field(name, func(sc *benchScenario) (float64, bool) {
		worst := 0.0
		for _, ep := range sc.Endpoints {
			if ep.P50Ms > 0 && ep.Requests >= 100 {
				worst = math.Max(worst, ep.P99Ms/ep.P50Ms)
			}
		}
		return worst, true
	})
}

// failedGates evaluates the gate table against a finished report,
// logging every verdict, and returns the names of the gates that failed.
func failedGates(cur, base *benchReport, set benchSettings) []string {
	var failed []string
	for _, g := range benchGates {
		v, ok := g.value(cur, base)
		if !ok {
			logf("bench gate %-38s not measured, skipped", g.name)
			continue
		}
		limit := g.limit(set)
		pass, rel := v >= limit, ">="
		if g.ceiling {
			pass, rel = v <= limit, "<="
		}
		verdict := "ok"
		if !pass {
			verdict = "REGRESSION"
			failed = append(failed, g.name)
		}
		logf("bench gate %-38s %12.3f (want %s %g) %s", g.name, v, rel, limit, verdict)
	}
	return failed
}

// benchWarmup sizes the unrecorded ramp that precedes every measured
// window: a fifth of the duration, clamped to [200ms, 1s] — long
// enough to absorb server cold start and first-touch costs, short
// enough to keep the matrix cheap.
func benchWarmup(d time.Duration) time.Duration {
	return min(max(d/5, 200*time.Millisecond), time.Second)
}

// cpuConcurrency caps the driver's worker count for pure-CPU scenarios
// (every row that does not persist) at a small multiple of GOMAXPROCS.
// With direct dispatch a worker IS the server goroutine, so extra
// workers beyond what the cores can run add zero server load — they
// only lengthen the scheduler's run queue in front of the latency
// clock. On one core, 32 compute-bound workers mean a goroutine that
// parks mid-request (GC mark assist, preemption) rejoins behind 31 full
// timeslices: a ~300ms artifact the old baseline recorded as a 243ms
// join p99. The fsync scenarios keep the requested concurrency: their
// workers park on journal I/O (a short run queue regardless), and
// group-commit batching only exists when many acks are genuinely in
// flight.
func cpuConcurrency(requested int) int {
	return min(requested, 4*runtime.GOMAXPROCS(0))
}

// runBench runs the scenario table, writes the report, then runs the
// gate table, and reports whether every leg was healthy and every gate
// passed.
func runBench(set benchSettings) bool {
	rep := benchReport{
		Kind:        set.kind,
		Concurrency: set.concurrency,
		Videos:      len(set.payloads),
		Seed:        set.seed,
		Trials:      max(set.trials, 1),
		DurationS:   set.duration.Seconds(),
	}
	ok := true
	for i := 0; i < len(benchRows); i++ {
		group := benchRows[i : i+1]
		if benchRows[i].pairNext {
			group = benchRows[i : i+2]
			i++
		}
		rep.Scenarios = append(rep.Scenarios, runRows(group, set, &ok)...)
	}
	ratio := func(num, den string, f func(sc *benchScenario) float64) float64 {
		n, d := rep.scenario(num), rep.scenario(den)
		if n == nil || d == nil || f(d) <= 0 {
			return 0
		}
		return f(n) / f(d)
	}
	ingestP99 := func(sc *benchScenario) float64 { return sc.IngestP99Ms }
	rep.FsyncIngestP99Speedup = math.Max(ratio("fsync-record", "fsync-group", ingestP99),
		ratio("fsync-record", "fsync-group-window", ingestP99))
	rep.BinaryBatchSpeedup = ratio("binary-batch", "json-events", func(sc *benchScenario) float64 { return sc.RecordsPerS })
	rep.SessionsToDecisionSpeedup = ratio("fixed-campaign", "adaptive-campaign",
		func(sc *benchScenario) float64 { return float64(sc.SessionsToDecision) })
	rep.ClusterSessionSpeedup = ratio("cluster-3node", "single-node", func(sc *benchScenario) float64 { return sc.SessionsPerS })

	buf, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		fatalf("bench report: %v", err)
	}
	if err := os.WriteFile(set.out, append(buf, '\n'), 0o644); err != nil {
		fatalf("bench report: %v", err)
	}
	logf("bench report written to %s", set.out)
	var base *benchReport
	if set.baseline != "" {
		if base, err = loadReport(set.baseline); err != nil {
			logf("bench baseline: %v", err)
			ok = false
		}
	}
	return len(failedGates(&rep, base, set)) == 0 && ok
}

// runRows runs one row, or a pair trial-interleaved, for the row's
// trial count and returns each row's median-throughput trial with its
// twins folded in. Throughput on a shared host swings tens of percent
// run to run (page cache, device, CPU frequency), so neither the
// committed baseline nor a CI run gates on a lucky or unlucky sample.
func runRows(group []benchRow, set benchSettings, ok *bool) []benchScenario {
	twins := set.overheadTol >= 0
	trials := max(set.trials, 1)
	if group[0].trials > 0 {
		trials = group[0].trials
	}
	if twins {
		trials += group[0].twinTrials
	}
	order := []int{0, 1}[:len(group)]
	if len(group) == 2 && group[0].nodes == 1 {
		order = []int{1, 0}
	}
	inst := make([][]benchScenario, len(group))
	plain := make([][]benchScenario, len(group))
	traced := make([][]benchScenario, len(group))
	for trial := 0; trial < trials; trial++ {
		campaigns := 0
		for _, k := range order {
			row := &group[k]
			inst[k] = append(inst[k], mustLeg(row, set, true, 0, &campaigns, ok))
			if twins && row.plainTwin {
				plain[k] = append(plain[k], mustLeg(row, set, false, 0, &campaigns, ok))
			}
			if twins && row.traceTwin > 0 {
				traced[k] = append(traced[k], mustLeg(row, set, true, row.traceTwin, &campaigns, ok))
			}
		}
	}
	out := make([]benchScenario, len(group))
	for k := range group {
		sc := medianThroughput(inst[k])
		if len(plain[k]) > 0 {
			if p := medianThroughput(plain[k]); p.RequestsPerS > 0 {
				sc.UninstrumentedRequestsPerS = p.RequestsPerS
				sc.TelemetryOverheadPct = pairedOverheadPct(plain[k], inst[k])
			}
		}
		if len(traced[k]) > 0 {
			if t := medianThroughput(traced[k]); t.RequestsPerS > 0 {
				sc.TracedRequestsPerS = t.RequestsPerS
				sc.TracingOverheadPct = pairedOverheadPct(inst[k], traced[k])
				sc.StageP99Ms, sc.StageSumP99Ms, sc.TraceTotalP99Ms = t.StageP99Ms, t.StageSumP99Ms, t.TraceTotalP99Ms
			}
		}
		logf("bench %-18s %10.1f req/s %8.1f sessions/s  ingest p50=%.3fms p99=%.3fms server-p99=%.3fms  (%d sessions, %d requests, %d errors, median of %d)",
			sc.Name, sc.RequestsPerS, sc.SessionsPerS, sc.IngestP50Ms, sc.IngestP99Ms, sc.ServerIngestP99Ms,
			sc.Sessions, sc.Requests, sc.Errors, trials)
		out[k] = sc
	}
	return out
}

// mustLeg runs one leg, exiting on a setup or drive error and clearing
// *ok when the leg is unhealthy. *campaigns carries the seeded campaign
// count from leg to leg within a trial.
func mustLeg(row *benchRow, set benchSettings, instrumented bool, traceSample float64, campaigns *int, ok *bool) benchScenario {
	sc, err := runLeg(row, set, instrumented, traceSample, campaigns)
	if err != nil {
		fatalf("bench %s: %v", row.name, err)
	}
	if !row.healthy(sc) {
		logf("bench %s FAILED: %d errors, %d completed, %d requests, %d sessions to decision",
			sc.Name, sc.Errors, sc.Completed, sc.Requests, sc.SessionsToDecision)
		*ok = false
	}
	return sc
}

// benchLeg is one run of one row against its own fresh target.
type benchLeg struct {
	row          *benchRow
	set          benchSettings
	instrumented bool
	traceSample  float64
	h            http.Handler     // the entry handler: the server's, or the cluster router's
	client       *http.Client     // direct dispatch into h
	srv          *platform.Server // nil for a cluster
	covered      func() bool      // the cluster's placement goal; nil for one server
	campaigns    int              // campaigns seeded (read first by the one-node scale-out leg)
}

// runLeg boots the row's target, drives it, and tears it down — and
// its journal directory — on every path.
func runLeg(row *benchRow, set benchSettings, instrumented bool, traceSample float64, campaigns *int) (sc benchScenario, err error) {
	opts := row.opts
	opts.Shards = set.shards
	opts.DisableTelemetry = !instrumented
	opts.AdaptiveSeed = set.seed
	// A deep trace ring so the end-of-run breakdown sees a real sample
	// of steady-state traces, not just the final few hundred requests.
	opts.TraceSample, opts.TraceSeed, opts.TraceBuffer = traceSample, uint64(set.seed), 8192
	// Auto-snapshots are off: a full-state snapshot is a multi-megabyte
	// fsync burst that stalls the device for every scenario alike, and
	// what is under measurement is the append pipeline, not the
	// snapshot cadence.
	opts.SnapshotEvery = -1
	if row.persist {
		if set.dataDir != "" {
			if err = os.MkdirAll(set.dataDir, 0o755); err != nil {
				return sc, err
			}
		}
		if opts.DataDir, err = os.MkdirTemp(set.dataDir, "eyeorg-bench-*"); err != nil {
			return sc, err
		}
		defer os.RemoveAll(opts.DataDir)
	}
	l := &benchLeg{row: row, set: set, instrumented: instrumented, traceSample: traceSample, campaigns: *campaigns}
	var closer func() error
	if row.nodes > 1 {
		members := clusterMembers[:row.nodes]
		var cl *cluster.Cluster
		if cl, err = cluster.New(cluster.Config{Nodes: members, Dir: opts.DataDir, Fsync: opts.Fsync,
			SyncDelay: opts.SyncDelay, SnapshotEvery: -1}); err != nil {
			return sc, err
		}
		l.h, l.covered, closer = cl.Handler(), clusterCoverage(cl, members), cl.Close
	} else {
		if l.srv, err = platform.Open(opts); err != nil {
			return sc, err
		}
		l.h, closer = l.srv.Handler(), l.srv.Close
	}
	defer func() {
		if cerr := closer(); cerr != nil && err == nil {
			err = fmt.Errorf("close: %w", cerr)
		}
	}()
	l.client = &http.Client{Transport: directTransport{h: l.h}}
	sc, err = row.drive(l)
	*campaigns = l.campaigns
	return sc, err
}

// driveLifecycle drives the persona lifecycle for the configured
// duration. The matrix rows seed one campaign; the scale-out legs seed
// until every cluster node owns one (or, on one node, the count the
// cluster leg needed), so both legs split the workers over identical
// campaign sets. The matrix rows also fold the server's /metrics ingest
// p99 into the report, and a tracing leg reads its per-stage breakdown
// back from /debug/traces before the server closes.
func driveLifecycle(l *benchLeg) (benchScenario, error) {
	n := l.campaigns
	if n <= 0 {
		n = max(1, l.row.nodes)
	}
	campaigns, videoIDs, payloads, err := seedCampaignSet(l.client, benchTarget, l.set.kind, l.set.payloads, n, l.covered, clusterSeedCap)
	if err != nil {
		return benchScenario{}, fmt.Errorf("campaigns: %w", err)
	}
	l.campaigns = len(campaigns)
	conc := l.set.concurrency
	if !l.row.persist {
		conc = cpuConcurrency(conc)
	}
	agg, elapsed := runLoad(loadConfig{
		client:      l.client,
		target:      benchTarget,
		campaigns:   campaigns,
		kind:        l.set.kind,
		concurrency: conc,
		duration:    l.set.duration,
		maxSessions: int64(l.set.sessions),
		seed:        l.set.seed,
		warmup:      benchWarmup(l.set.duration),
		videoIDs:    videoIDs,
		payloads:    payloads,
	})
	sc := scenarioMetrics(l.row, agg, elapsed)
	sc.Concurrency = conc
	if l.instrumented && l.row.nodes == 0 {
		if p99, err := scrapeIngestP99(l.client, benchTarget); err != nil {
			logf("bench %s: metrics scrape: %v", l.row.name, err)
		} else {
			sc.ServerIngestP99Ms = roundMs(p99)
		}
	}
	if l.traceSample > 0 {
		// The trace surface lives on the operational DebugHandler, not
		// the API handler the load ran through.
		dbg := &http.Client{Transport: directTransport{h: l.srv.DebugHandler()}}
		if sc.StageP99Ms, sc.StageSumP99Ms, sc.TraceTotalP99Ms, err = traceBreakdown(dbg, benchTarget); err != nil {
			logf("bench %s: trace scrape: %v", l.row.name, err)
		}
	}
	return sc, nil
}

// driveDecision drives one leg of the fixed-vs-adaptive pair: a
// deterministic single-threaded crowd answering every timeline test at
// 3000ms ± 100ms (high agreement — the case adaptive stopping exists
// for). The fixed leg spends the full paper-sized session budget; the
// adaptive leg joins until the server refuses with 409 because every
// per-video interval resolved to decisionHalfWidthS.
func driveDecision(l *benchLeg) (benchScenario, error) {
	sc := benchScenario{Name: l.row.name, Concurrency: 1}
	campaign, _, err := seedCampaign(l.client, benchTarget, "timeline", l.set.payloads)
	if err != nil {
		return sc, fmt.Errorf("campaign: %w", err)
	}
	budget := fixedCampaignSessions
	if l.row.opts.Adaptive {
		budget = adaptiveSessionCap
	}
	start := time.Now()
	for sc.Completed < int64(budget) {
		closed, err := driveDecisionSession(l.client, benchTarget, campaign, int(sc.Completed))
		if err != nil {
			sc.Errors++
			return sc, err
		}
		if closed {
			break
		}
		sc.Completed++
	}
	sc.Sessions = sc.Completed
	sc.SessionsToDecision = int(sc.Completed)
	sc.DurationS = time.Since(start).Seconds()
	return sc, nil
}

// driveDecisionSession runs one synchronous session of the decision
// crowd: join (a 409 means the adaptive stopper closed the campaign —
// the decision point), one engagement batch per distinct assigned
// video (so the soft rule passes), then every answer at 3000ms plus a
// deterministic ±100ms jitter keyed by (session, test) — a crowd whose
// agreement is well inside decisionHalfWidthS.
func driveDecisionSession(client *http.Client, target, campaign string, n int) (closed bool, err error) {
	joinBody := fmt.Sprintf(`{"campaign":%q,"worker":{"id":"decider-%d","source":"loadgen"},"captcha":"bench"}`, campaign, n)
	var jr platform.JoinResponse
	status, _, err := doJSON(client, "POST", target+"/api/v1/sessions", []byte(joinBody), &jr)
	if status == http.StatusConflict {
		return true, nil
	}
	if err != nil {
		return false, fmt.Errorf("join: %w", err)
	}
	if status != http.StatusCreated {
		return false, fmt.Errorf("join: status %d", status)
	}
	eventsURL := target + "/api/v1/sessions/" + jr.Session + "/events"
	seen := map[string]bool{}
	for _, tt := range jr.Tests {
		if seen[tt.VideoID] {
			continue
		}
		seen[tt.VideoID] = true
		batch, err := json.Marshal(platform.EventBatch{
			VideoID: tt.VideoID, LoadMs: 800, TimeOnVideoMs: 7000,
			Plays: 1, WatchedFraction: 1,
		})
		if err != nil {
			return false, err
		}
		if st, _, err := doJSON(client, "POST", eventsURL, batch, nil); err != nil || st != http.StatusAccepted {
			return false, fmt.Errorf("events: status %d err %v", st, err)
		}
	}
	respURL := target + "/api/v1/sessions/" + jr.Session + "/responses"
	for k, tt := range jr.Tests {
		submitted := 3000 + float64((n*7+k)%21-10)*10 // 3000ms ± 100ms
		body, err := json.Marshal(platform.ResponseBody{
			TestID:       tt.TestID,
			SliderMs:     submitted,
			SubmittedMs:  submitted,
			KeptOriginal: true,
		})
		if err != nil {
			return false, err
		}
		if st, _, err := doJSON(client, "POST", respURL, body, nil); err != nil || st != http.StatusAccepted {
			return false, fmt.Errorf("response: status %d err %v", st, err)
		}
	}
	return false, nil
}

// driveVideo hammers the content-addressed video read path alone with
// a fixed conditional/full/Range mix against the in-memory tier. The
// 5/3/2 mix mirrors a replayed crowd, where most fetches are
// browser-cache revalidations (304), some are cold full-body pulls,
// and a tail resumes with Range.
func driveVideo(l *benchLeg) (benchScenario, error) {
	_, ids, err := seedCampaign(l.client, benchTarget, l.set.kind, l.set.payloads)
	if err != nil {
		return benchScenario{}, fmt.Errorf("campaign: %w", err)
	}
	// One priming GET per video collects the content-hash ETag and the
	// served size the request mix is built from.
	etags := make([]string, len(ids))
	sizes := make([]int64, len(ids))
	for i, id := range ids {
		resp, err := l.client.Get(benchTarget + "/api/v1/videos/" + id)
		if err != nil {
			return benchScenario{}, err
		}
		n, _ := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || resp.Header.Get("ETag") == "" || n == 0 {
			return benchScenario{}, fmt.Errorf("priming video %s: status %d, etag %q, %d bytes",
				id, resp.StatusCode, resp.Header.Get("ETag"), n)
		}
		etags[i], sizes[i] = resp.Header.Get("ETag"), n
	}
	sc, agg, err := hammer(l, func(int) ([]shot, error) {
		// Requests are built once per worker and redispatched: a GET has
		// no body to rewind, and the mux overwrites its route match on
		// every ServeHTTP, so reuse is safe on one goroutine.
		reuse := func(r *http.Request) func() *http.Request { return func() *http.Request { return r } }
		shots := make([]shot, 0, len(ids)*10)
		for i, id := range ids {
			full := httptest.NewRequest("GET", "/api/v1/videos/"+id, nil)
			cond := httptest.NewRequest("GET", "/api/v1/videos/"+id, nil)
			cond.Header.Set("If-None-Match", etags[i])
			half := sizes[i] / 2
			rng := httptest.NewRequest("GET", "/api/v1/videos/"+id, nil)
			rng.Header.Set("Range", fmt.Sprintf("bytes=0-%d", half-1))
			for k := 0; k < 5; k++ {
				shots = append(shots, shot{"video_cond", reuse(cond), http.StatusNotModified, 0})
			}
			for k := 0; k < 3; k++ {
				shots = append(shots, shot{"video", reuse(full), http.StatusOK, sizes[i]})
			}
			for k := 0; k < 2; k++ {
				shots = append(shots, shot{"video_range", reuse(rng), http.StatusPartialContent, half})
			}
		}
		return shots, nil
	})
	if err != nil {
		return sc, err
	}
	var all []time.Duration
	for _, name := range []string{"video", "video_cond", "video_range"} {
		all = append(all, agg.byEndpoint[name]...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	sc.VideoP50Ms = fmsF(pct(all, 0.50))
	sc.VideoP99Ms = fmsF(pct(all, 0.99))
	return sc, nil
}

// driveIngest hammers the events endpoint alone: each worker owns one
// pre-joined, never-completing session and replays a fixed flush of
// ingestBatchRecords engagement records — as 64 per-record JSON POSTs,
// or as one EYB1 batch POST. The payload bytes are built once and
// replayed, so the per-request driver cost is one request over a
// bytes.Reader on either protocol. The record values vary per record
// so the binary side exercises real varint/delta encoding widths, not
// a degenerate all-equal stream.
func driveIngest(binary bool) func(l *benchLeg) (benchScenario, error) {
	ct, perRequest := "application/json", 1
	if binary {
		ct, perRequest = wire.ContentType, ingestBatchRecords
	}
	return func(l *benchLeg) (benchScenario, error) {
		campaign, _, err := seedCampaign(l.client, benchTarget, l.set.kind, l.set.payloads)
		if err != nil {
			return benchScenario{}, fmt.Errorf("campaign: %w", err)
		}
		sc, _, err := hammer(l, func(w int) ([]shot, error) {
			body := fmt.Sprintf(
				`{"campaign":%q,"worker":{"id":"ingest-w%d","gender":"f","country":"IT","source":"bench"},"captcha":"bench"}`,
				campaign, w)
			var jr platform.JoinResponse
			if status, _, err := doJSON(l.client, "POST", benchTarget+"/api/v1/sessions", []byte(body), &jr); err != nil || status != http.StatusCreated {
				return nil, fmt.Errorf("join ingest-w%d: status %d, err %v", w, status, err)
			}
			var recs []wire.Record
			var payloads [][]byte
			for i := 0; i < ingestBatchRecords; i++ {
				b := platform.EventBatch{
					VideoID:         jr.Tests[i%len(jr.Tests)].VideoID,
					LoadMs:          100 + float64(i)*3.7,
					TimeOnVideoMs:   5_000 + float64(i)*211.3,
					OutOfFocusMs:    float64(i%7) * 13.1,
					Plays:           1 + i%2,
					Pauses:          i % 3,
					Seeks:           i % 11,
					WatchedFraction: float64(i%10) / 10,
				}
				recs = platform.AppendWireRecords(recs, b)
				js, err := json.Marshal(b)
				if err != nil {
					return nil, err
				}
				payloads = append(payloads, js)
			}
			if binary {
				payloads = [][]byte{wire.AppendBatch(nil, recs)}
			}
			path := "/api/v1/sessions/" + jr.Session + "/events"
			shots := make([]shot, len(payloads))
			for i, p := range payloads {
				shots[i] = shot{"events", func() *http.Request {
					req := httptest.NewRequest("POST", path, bytes.NewReader(p))
					req.Header.Set("Content-Type", ct)
					return req
				}, http.StatusAccepted, -1}
			}
			return shots, nil
		})
		sc.RecordsPerS = sc.RequestsPerS * float64(perRequest)
		return sc, err
	}
}

// shot is one request a hammer worker replays: next yields it (a
// reused GET, or a fresh POST over a replayed body), and the response
// must carry status want and, unless bytes is negative, that many body
// bytes.
type shot struct {
	endpoint string
	next     func() *http.Request
	want     int
	bytes    int64
}

// hammer drives the leg's handler from cpuConcurrency workers, each
// cycling through the shots built for it, dispatching straight into the
// handler through a reused nullWriter so the measured cost is the mux,
// the handler and what sits behind them — not recorder allocation or
// TCP. Shots are built before the clock starts.
func hammer(l *benchLeg, build func(w int) ([]shot, error)) (benchScenario, *aggregate, error) {
	conc := cpuConcurrency(l.set.concurrency)
	lanes := make([][]shot, conc)
	for w := range lanes {
		var err error
		if lanes[w], err = build(w); err != nil {
			return benchScenario{}, nil, err
		}
	}
	start := time.Now()
	recordFrom := start.Add(benchWarmup(l.set.duration))
	deadline := recordFrom.Add(l.set.duration)
	var badStatus atomic.Int32
	stats, err := parallel.Map(conc, conc, func(w int) (*workerStats, error) {
		st, nw, lane := newWorkerStats(), newNullWriter(), lanes[w]
		for i := w; ; i++ {
			now := time.Now()
			if now.After(deadline) {
				return st, nil
			}
			sh := &lane[i%len(lane)]
			nw.reset()
			l.h.ServeHTTP(nw, sh.next())
			if nw.status != sh.want || (sh.bytes >= 0 && nw.n != sh.bytes) {
				st.errors++
				badStatus.CompareAndSwap(0, int32(nw.status))
				continue
			}
			if now.After(recordFrom) {
				st.lat[sh.endpoint] = append(st.lat[sh.endpoint], time.Since(now))
			}
		}
	})
	elapsed := time.Since(recordFrom)
	if err != nil {
		return benchScenario{}, nil, err
	}
	if bs := badStatus.Load(); bs != 0 {
		logf("bench %s: unexpected responses (first bad status %d)", l.row.name, bs)
	}
	agg := merge(stats)
	sc := scenarioMetrics(l.row, agg, elapsed)
	sc.Concurrency = conc
	return sc, agg, nil
}

// nullWriter is the hammer's ResponseWriter: it records status and
// byte count and discards the payload, reusing its header map and copy
// buffer across requests so the driver itself costs nothing measurable
// per request. ReadFrom matters: without it, ServeContent's io.Copy
// would allocate a fresh 32KB buffer per Range response and the bench
// would measure the garbage collector instead of the blob store.
type nullWriter struct {
	h      http.Header
	status int
	n      int64
	buf    []byte
}

func newNullWriter() *nullWriter {
	return &nullWriter{h: make(http.Header, 8), buf: make([]byte, 32<<10)}
}

func (w *nullWriter) Header() http.Header { return w.h }

func (w *nullWriter) WriteHeader(code int) { w.status = code }

func (w *nullWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	w.n += int64(len(p))
	return len(p), nil
}

func (w *nullWriter) ReadFrom(src io.Reader) (int64, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	var n int64
	for {
		m, err := src.Read(w.buf)
		n += int64(m)
		w.n += int64(m)
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
	}
}

func (w *nullWriter) reset() {
	w.status = 0
	w.n = 0
	clear(w.h)
}

// medianThroughput returns the median-RequestsPerS run. It sorts a
// copy: callers keep their slices in trial order, which
// pairedOverheadPct depends on.
func medianThroughput(runs []benchScenario) benchScenario {
	sorted := append([]benchScenario(nil), runs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].RequestsPerS < sorted[j].RequestsPerS })
	return sorted[len(sorted)/2]
}

// pairedOverheadPct prices a feature by comparing each trial's
// feature-on run against the feature-off run from the same trial —
// (1 - with/without)·100 — and returning the median of those per-trial
// deltas. The pairing is the point: on a shared host single runs swing
// ±10% with GC pacing and scheduler noise, so a ratio of two
// independently chosen medians can report several times the true cost
// (or a negative one). Back-to-back runs share most of that drift, and
// the median across trials discards the pairs where it still leaked in.
// The baseline and twin slices are parallel arrays indexed by trial.
func pairedOverheadPct(without, with []benchScenario) float64 {
	n := min(len(without), len(with))
	deltas := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if without[i].RequestsPerS > 0 {
			deltas = append(deltas, (1-with[i].RequestsPerS/without[i].RequestsPerS)*100)
		}
	}
	if len(deltas) == 0 {
		return math.NaN()
	}
	sort.Float64s(deltas)
	return deltas[len(deltas)/2]
}

// traceBreakdown reads the server's retained traces from /debug/traces
// and reduces the ingest routes (events + responses — the same set
// IngestP99Ms profiles) to a per-stage p99 breakdown: the p99 of each
// stage's attributed duration, the sum of those p99s, and the p99 of
// whole-trace durations the sum is audited against.
func traceBreakdown(client *http.Client, target string) (map[string]float64, float64, float64, error) {
	resp, err := client.Get(target + "/debug/traces")
	if err != nil {
		return nil, 0, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, 0, 0, fmt.Errorf("GET /debug/traces: status %d", resp.StatusCode)
	}
	var report trace.Report
	if err := json.NewDecoder(resp.Body).Decode(&report); err != nil {
		return nil, 0, 0, err
	}
	perStage := make([][]time.Duration, trace.NumStages)
	var totals []time.Duration
	for _, rec := range report.Traces {
		if rec.Route != "events" && rec.Route != "response" {
			continue
		}
		totals = append(totals, rec.Duration)
		for i, d := range rec.Stages {
			perStage[i] = append(perStage[i], d)
		}
	}
	if len(totals) == 0 {
		return nil, 0, 0, fmt.Errorf("no ingest traces retained (%d total)", report.Count)
	}
	sort.Slice(totals, func(i, j int) bool { return totals[i] < totals[j] })
	stages := make(map[string]float64, trace.NumStages)
	var sum float64
	for i, lat := range perStage {
		sort.Slice(lat, func(a, b int) bool { return lat[a] < lat[b] })
		p99 := fmsF(pct(lat, 0.99))
		sum += p99
		if p99 > 0 {
			stages[trace.Stage(i).String()] = p99
		}
	}
	return stages, sum, fmsF(pct(totals, 0.99)), nil
}

func (r *benchReport) scenario(name string) *benchScenario {
	for i := range r.Scenarios {
		if r.Scenarios[i].Name == name {
			return &r.Scenarios[i]
		}
	}
	return nil
}

// loadReport reads a -bench-out document.
func loadReport(path string) (*benchReport, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep benchReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// scenarioMetrics folds one run's aggregate into the report shape.
func scenarioMetrics(row *benchRow, agg *aggregate, elapsed time.Duration) benchScenario {
	secs := elapsed.Seconds()
	sc := benchScenario{
		Name:         row.name,
		Persist:      row.persist,
		Fsync:        row.opts.Fsync,
		GroupCommit:  row.opts.GroupCommit,
		DurationS:    secs,
		Sessions:     agg.sessions,
		Completed:    agg.completed,
		Errors:       agg.errors,
		Requests:     agg.requests,
		SessionsPerS: float64(agg.completed) / secs,
		RequestsPerS: float64(agg.requests) / secs,
		Endpoints:    map[string]benchEndpoint{},
	}
	var ingest []time.Duration
	for name, lat := range agg.byEndpoint {
		sc.Endpoints[name] = benchEndpoint{
			Requests: len(lat),
			P50Ms:    fmsF(pct(lat, 0.50)),
			P90Ms:    fmsF(pct(lat, 0.90)),
			P99Ms:    fmsF(pct(lat, 0.99)),
			MaxMs:    fmsF(pct(lat, 1.0)),
		}
		if name == "events" || name == "response" {
			ingest = append(ingest, lat...)
		}
	}
	sort.Slice(ingest, func(i, j int) bool { return ingest[i] < ingest[j] })
	sc.IngestP50Ms = fmsF(pct(ingest, 0.50))
	sc.IngestP99Ms = fmsF(pct(ingest, 0.99))
	return sc
}

// fmsF is a duration in float milliseconds, rounded to the microsecond
// so the committed baseline diffs stay readable.
func fmsF(d time.Duration) float64 {
	return float64(d.Round(time.Microsecond)) / float64(time.Millisecond)
}
