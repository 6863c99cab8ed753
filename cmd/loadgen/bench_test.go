package main

import (
	"encoding/json"
	"reflect"
	"sort"
	"testing"
)

// TestBenchGates pins the gate table against the committed baseline
// report: every gate passes on it, and pushing any one gate's value
// just past its threshold fails exactly that gate. It also pins which
// scenarios the baseline comparison gates.
func TestBenchGates(t *testing.T) {
	committed, err := loadReport("../../BENCH_platform.json")
	if err != nil {
		t.Fatal(err)
	}
	// The CI invocation's tolerances: -bench-tolerance's default and
	// -bench-overhead-tolerance 0.05.
	set := benchSettings{tolerance: 0.20, overheadTol: 0.05}
	if failed := failedGates(committed, committed, set); len(failed) != 0 {
		t.Fatalf("committed baseline fails %v", failed)
	}

	// skewed gives the scenario's first eligible endpoint a p99 just
	// over maxLatencySkew times its p50.
	skewed := func(name string) func(r *benchReport) {
		return func(r *benchReport) {
			sc := r.scenario(name)
			eps := make([]string, 0, len(sc.Endpoints))
			for ep := range sc.Endpoints {
				eps = append(eps, ep)
			}
			sort.Strings(eps)
			for _, ep := range eps {
				if e := sc.Endpoints[ep]; e.P50Ms > 0 && e.Requests >= 100 {
					e.P99Ms = e.P50Ms * (maxLatencySkew + 1)
					sc.Endpoints[ep] = e
					return
				}
			}
			t.Fatalf("%s has no endpoint the skew gate reads", name)
		}
	}
	// slower halves a baseline-gated scenario's throughput: both its
	// absolute and its mem-relative req/s fall past the 20% tolerance.
	slower := func(name string) func(r *benchReport) {
		return func(r *benchReport) { r.scenario(name).RequestsPerS /= 2 }
	}
	push := map[string]func(r *benchReport){
		"mem latency skew":         skewed("mem"),
		"video-heavy latency skew": skewed("video-heavy"),
		// A uniformly slower host: mem falls by the same factor, so the
		// mem-relative baseline comparison still passes and only the
		// absolute floor trips.
		"video-heavy req/s": func(r *benchReport) {
			v := r.scenario("video-heavy")
			k := (videoReqFloor - 1) / v.RequestsPerS
			v.RequestsPerS *= k
			r.scenario("mem").RequestsPerS *= k
		},
		"video-heavy video p99 ms":     func(r *benchReport) { r.scenario("video-heavy").VideoP99Ms = videoP99BudgetMs + 0.001 },
		"binary_batch_speedup":         func(r *benchReport) { r.BinaryBatchSpeedup = binaryBatchFloor - 0.01 },
		"sessions_to_decision_speedup": func(r *benchReport) { r.SessionsToDecisionSpeedup = adaptiveDecisionFloor - 0.01 },
		"cluster_session_speedup":      func(r *benchReport) { r.ClusterSessionSpeedup = clusterSessionFloor - 0.01 },
		"mem telemetry overhead %":     func(r *benchReport) { r.scenario("mem").TelemetryOverheadPct = 5.01 },
		"mem tracing overhead %":       func(r *benchReport) { r.scenario("mem").TracingOverheadPct = 5.01 },
		"fsync-group-window stage coverage %": func(r *benchReport) {
			sc := r.scenario("fsync-group-window")
			sc.StageSumP99Ms = sc.TraceTotalP99Ms * 0.89
		},
		"baseline wal req/s":                slower("wal"),
		"baseline fsync-group req/s":        slower("fsync-group"),
		"baseline fsync-group-window req/s": slower("fsync-group-window"),
		"baseline video-heavy req/s":        slower("video-heavy"),
		"baseline json-events req/s":        slower("json-events"),
		"baseline binary-batch req/s":       slower("binary-batch"),
	}
	var names []string
	for _, g := range benchGates {
		names = append(names, g.name)
	}
	var want []string
	for name := range push {
		want = append(want, name)
	}
	sort.Strings(names)
	sort.Strings(want)
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("gate table %v, want %v", names, want)
	}
	raw, err := json.Marshal(committed)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range benchGates {
		var cur benchReport
		if err := json.Unmarshal(raw, &cur); err != nil {
			t.Fatal(err)
		}
		push[g.name](&cur)
		if failed := failedGates(&cur, committed, set); !reflect.DeepEqual(failed, []string{g.name}) {
			t.Errorf("pushing %q past its threshold failed %v", g.name, failed)
		}
	}

	var gated []string
	for _, row := range benchRows {
		if row.baseline {
			gated = append(gated, row.name)
		}
	}
	if want := []string{"wal", "fsync-group", "fsync-group-window", "video-heavy", "json-events", "binary-batch"}; !reflect.DeepEqual(gated, want) {
		t.Fatalf("baseline-gated scenarios %v, want %v", gated, want)
	}
	// The table runs in the committed report's scenario order.
	var rows, reported []string
	for i := range benchRows {
		rows = append(rows, benchRows[i].name)
	}
	for _, sc := range committed.Scenarios {
		reported = append(reported, sc.Name)
	}
	if !reflect.DeepEqual(rows, reported) {
		t.Fatalf("scenario table %v, committed report %v", rows, reported)
	}
}
