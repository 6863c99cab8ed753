package main

import (
	"bufio"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

var stageNames = []string{"receive", "admission", "decode", "lock_wait", "append", "apply", "flush", "fsync", "ack", "write"}

// traced runs the per-layer measurement: alternating untraced and
// traced capacity windows (their difference is the tracing overhead), a
// traced nominal pass whose client spans are joined with the servers'
// trace records, /metrics deltas over that pass, and the layer
// microbenchmarks on the workload's generated inputs.
func (run *runner) traced() error {
	w, r := run.w, run.r
	var err error
	if run.payloads, err = capturePayloads(corpusSeed, w.videos); err != nil {
		return err
	}
	nWarm, nNom := run.windows(warmShare), run.windows(nominalShare)
	warm := schedule(run.seed*7+1, w.nominal, w.nominal, nWarm, 0, window)
	for i := range warm {
		warm[i].phase = phWarm
	}
	slots := schedule(run.seed*7+2, w.nominal, 0, nNom, 0, window)
	capD := run.phase(capacityShare)
	nJoins := len(warm) + len(slots) + capacityJoins(w, capD)

	// Closed-loop capacity alternates between an untraced and a traced
	// deployment, window by window, so drift on the host hits both.
	d0, _, err := run.deploy("plain", false)
	if err != nil {
		return err
	}
	g0, err := run.prepare(d0, nJoins)
	if err != nil {
		return err
	}
	g0.c = newClient(d0.front, nproc(), false, run.seed)
	d, _, err := run.deploy("traced", true)
	if err != nil {
		return err
	}
	g, err := run.prepare(d, nJoins)
	if err != nil {
		return err
	}
	r.Inputs = hashArrivals(g.sc.digest, slotOffsets(warm), slotOffsets(slots))
	g.c = newClient(d.front, nproc(), true, run.seed)
	// Each client drops its idle connections when the other takes over,
	// so the generator never holds more than two.
	run.hc.CloseIdleConnections()
	g0.openLoop(warm, nWarm, window, nil, nil)
	g0.c.hc.CloseIdleConnections()
	g.openLoop(warm, nWarm, window, nil, nil)
	var plain, traced []float64
	for k := 0; k < int(capD/capWindow); k++ {
		g.c.hc.CloseIdleConnections()
		plain = append(plain, toFloats(g0.closedLoop(phCapacity, nproc(), capWindow, capWindow))...)
		g0.c.hc.CloseIdleConnections()
		traced = append(traced, toFloats(g.closedLoop(phCapacity, nproc(), capWindow, capWindow))...)
	}
	run.teardown(d0)
	if g0.ranOut.Load() {
		r.problem("the generated sessions ran out before the untraced capacity windows ended")
	}
	plainRate, tracedRate := median(plain)/capWindow.Seconds(), median(traced)/capWindow.Seconds()
	if plainRate == 0 {
		return fmt.Errorf("no session completed in the untraced capacity windows")
	}
	r.add(metric{Name: "trace.overhead_pct", Unit: "%", Value: 100 * (plainRate - tracedRate) / plainRate, N: len(plain) + len(traced),
		Note: fmt.Sprintf("closed-loop sessions/s untraced %.1f vs traced %.1f, medians of alternating %v windows", plainRate, tracedRate, capWindow)})

	var routerRSS0 int64
	if d.router != nil {
		if routerRSS0, err = statusKB(d.router.pid(), "VmRSS"); err != nil {
			return err
		}
	}
	before, err := scrapeAll(run.hc, d)
	if err != nil {
		return err
	}
	var dash []poll
	if w.dashRate > 0 {
		dash = dashboardPolls(run.seed*7+3, w.dashRate, time.Duration(nNom)*window, d.camps)
	}
	nomDone := 0
	for _, n := range g.openLoop(slots, nNom, window, func(start time.Time, wg *sync.WaitGroup) {
		if len(dash) > 0 {
			g.runPolls(dash, start, window, func(int) uint8 { return phNominal }, wg)
		}
	}, nil) {
		nomDone += n
	}
	after, err := scrapeAll(run.hc, d)
	if err != nil {
		return err
	}
	if nomDone == 0 {
		return fmt.Errorf("no session completed at the nominal rate")
	}
	recs, err := fetchTraces(run.hc, d)
	if err != nil {
		return err
	}
	run.routeMetrics(g)
	run.httpGap(g, recs)
	run.stageMetrics(g, recs)
	run.storeMetrics(before, after, nomDone)
	run.generatorHealth(g)
	if err := run.scrapeTime(d); err != nil {
		return err
	}
	if d.router != nil {
		g.c.hc.CloseIdleConnections()
		if err := run.routerHop(d); err != nil {
			return err
		}
		kb, err := statusKB(d.router.pid(), "VmRSS")
		if err != nil {
			return err
		}
		r.add(metric{Name: "router.rss_kb_per_session", Unit: "kB", Value: float64(kb-routerRSS0) / float64(nomDone), N: nomDone,
			Note: "router VmRSS growth over the nominal pass per session completed in it"})
	}
	_, problems := g.checkResults(run.hc, d.front)
	for _, p := range problems {
		r.problem("%s", p)
	}
	run.countRequests(g)
	if err := writeSpans(run.out, run.w.name, run.seed, g.c); err != nil {
		return err
	}
	run.teardown(d)
	return run.microbenchmarks(g)
}

func toFloats(v []int) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = float64(x)
	}
	return out
}

// routeMetrics reports client-side latency per route over the traced
// nominal pass, timed from when each request was due.
func (run *runner) routeMetrics(g *gen) {
	by := map[uint8][]float64{}
	for _, sp := range g.c.spans {
		if sp.phase == phNominal {
			by[sp.route] = append(by[sp.route], float64(sp.end-sp.due)/1e6)
		}
	}
	for rt := uint8(0); rt < numRoutes; rt++ {
		v := by[rt]
		if len(v) == 0 || rt == rReval {
			continue
		}
		name := "route." + routeNames[rt]
		run.r.add(dist(name+".p50_ms", "ms", v, 0.5))
		run.r.add(dist(name+".p99_ms", "ms", v, 0.99))
		run.r.add(metric{Name: name + ".n", Unit: "count", Value: float64(len(v)), N: len(v)})
	}
}

// traceRec is the subset of a /debug/traces record the analysis reads.
type traceRec struct {
	ID       string           `json:"id"`
	Route    string           `json:"route"`
	Status   int              `json:"status"`
	Duration int64            `json:"duration_ns"`
	Stages   map[string]int64 `json:"stages_ns"`
}

// fetchTraces reads every server's retained traces, keyed by trace ID.
func fetchTraces(hc *http.Client, d *deployment) (map[string]traceRec, error) {
	out := map[string]traceRec{}
	for _, s := range d.servers {
		resp, err := hc.Get(s.debug + "/debug/traces")
		if err != nil {
			return nil, err
		}
		var rep struct {
			Traces []traceRec `json:"traces"`
		}
		err = json.NewDecoder(resp.Body).Decode(&rep)
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("decoding /debug/traces: %w", err)
		}
		for _, t := range rep.Traces {
			out[t.ID] = t
		}
	}
	return out, nil
}

// httpGap is the client span (from getting a connection to reading
// the reply) minus the server's own trace of the same request: the
// HTTP stack, loopback and, when routed, the router hop.
func (run *runner) httpGap(g *gen, recs map[string]traceRec) {
	var gap []float64
	for _, sp := range g.c.spans {
		if sp.phase != phNominal {
			continue
		}
		t, ok := recs[hex.EncodeToString(sp.traceID[:])]
		if !ok {
			continue
		}
		gap = append(gap, float64(sp.end-sp.conn-t.Duration)/1e6)
	}
	note := fmt.Sprintf("%d client spans matched to server traces", len(gap))
	m := dist("http.gap_p50_ms", "ms", gap, 0.5)
	m.Note = note
	run.r.add(m)
	m = dist("http.gap_p99_ms", "ms", gap, 0.99)
	m.Note = note
	run.r.add(m)
	if len(gap) == 0 {
		run.r.problem("no client span matched a server trace")
	}
}

// stageMetrics reports each ingest stage's mean self time and its mean
// share of wall time over the slowest 1% of the nominal pass's traced
// ingest requests. The trace ring also holds the warm-up and the
// saturated capacity windows, so records are kept only when a nominal
// client span carries their trace ID. Stages tile a trace's wall time,
// so the shares sum to 100%.
func (run *runner) stageMetrics(g *gen, recs map[string]traceRec) {
	var ingest []traceRec
	for _, sp := range g.c.spans {
		if sp.phase != phNominal || (sp.route != rEvents && sp.route != rResponse) {
			continue
		}
		t, ok := recs[hex.EncodeToString(sp.traceID[:])]
		if !ok || t.Duration <= 0 {
			continue
		}
		if t.Route != routeNames[sp.route] {
			run.r.problem("trace %s: server route %q, client sent %s", t.ID, t.Route, routeNames[sp.route])
			return
		}
		ingest = append(ingest, t)
	}
	if len(ingest) == 0 {
		run.r.problem("no nominal ingest request matched a server trace")
		return
	}
	sort.Slice(ingest, func(i, j int) bool {
		if ingest[i].Duration != ingest[j].Duration {
			return ingest[i].Duration > ingest[j].Duration
		}
		return ingest[i].ID < ingest[j].ID
	})
	tail := ingest[:int(math.Max(1, math.Ceil(float64(len(ingest))/100)))]
	sum := 0.0
	for _, s := range stageNames {
		var total float64
		for _, t := range ingest {
			total += float64(t.Stages[s])
		}
		run.r.add(metric{Name: "stage." + s + ".mean_ms", Unit: "ms", Value: total / float64(len(ingest)) / 1e6, N: len(ingest)})
		var share float64
		for _, t := range tail {
			share += float64(t.Stages[s]) / float64(t.Duration)
		}
		share = 100 * share / float64(len(tail))
		sum += share
		run.r.add(metric{Name: "stage." + s + ".tail_share", Unit: "%", Value: share, N: len(tail)})
	}
	run.r.add(metric{Name: "stage.tail_share_sum", Unit: "%", Value: sum, N: len(tail),
		Note: "stages tile wall time; must be 100 within rounding"})
	if math.Abs(sum-100) > 0.5 {
		run.r.problem("ingest stage tail shares sum to %.3f%%, not 100%%", sum)
	}
}

// promSeries holds parsed /metrics values keyed "name{labels}".
type promSeries map[string]float64

// scrape reads one /metrics page into series keyed "name{labels}".
func scrape(hc *http.Client, url string) (promSeries, error) {
	resp, err := hc.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	out := promSeries{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] += v
	}
	return out, sc.Err()
}

// scrapeAll sums the /metrics series of every platform server.
func scrapeAll(hc *http.Client, d *deployment) (promSeries, error) {
	total := promSeries{}
	for _, s := range d.servers {
		one, err := scrape(hc, s.base+"/metrics")
		if err != nil {
			return nil, err
		}
		for k, v := range one {
			total[k] += v
		}
	}
	return total, nil
}

// histQuantile reads quantile q of a histogram's bucket deltas,
// interpolating inside the covering bucket.
func histQuantile(before, after promSeries, name string, q float64) (float64, int) {
	type bucket struct{ le, n float64 }
	var bs []bucket
	prefix := name + `_bucket{le="`
	for k, v := range after {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		le := strings.TrimSuffix(strings.TrimPrefix(k, prefix), `"}`)
		b := math.Inf(1)
		if le != "+Inf" {
			var err error
			if b, err = strconv.ParseFloat(le, 64); err != nil {
				continue
			}
		}
		bs = append(bs, bucket{b, v - before[k]})
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	if len(bs) == 0 || bs[len(bs)-1].n == 0 {
		return 0, 0
	}
	total := bs[len(bs)-1].n
	rank := q * total
	prevLe, prevN := 0.0, 0.0
	for _, b := range bs {
		if b.n >= rank && b.n > prevN {
			if math.IsInf(b.le, 1) {
				return prevLe, int(total)
			}
			return prevLe + (b.le-prevLe)*(rank-prevN)/(b.n-prevN), int(total)
		}
		prevLe, prevN = b.le, b.n
	}
	return prevLe, int(total)
}

// storeMetrics reports journal and blob-cache work over the traced
// nominal pass from /metrics deltas.
func (run *runner) storeMetrics(before, after promSeries, sessions int) {
	r := run.r
	delta := func(k string) float64 { return after[k] - before[k] }
	r.add(metric{Name: "store.appends_per_session", Unit: "count", Value: delta("eyeorg_journal_appends_total") / float64(sessions), N: sessions})
	r.add(metric{Name: "store.bytes_per_session", Unit: "B", Value: delta("eyeorg_journal_append_bytes_total") / float64(sessions), N: sessions})
	windows := delta("eyeorg_journal_window_records_count")
	perWindow := 0.0
	if windows > 0 {
		perWindow = delta("eyeorg_journal_window_records_sum") / windows
	}
	r.add(metric{Name: "store.records_per_window", Unit: "count", Value: perWindow, N: int(windows),
		Note: "records made durable per commit window"})
	for _, q := range []struct {
		name string
		q    float64
	}{{"store.fsync_p50_ms", 0.5}, {"store.fsync_p99_ms", 0.99}} {
		v, n := histQuantile(before, after, "eyeorg_journal_fsync_seconds", q.q)
		r.add(metric{Name: q.name, Unit: "ms", Value: v * 1000, N: n, Note: "from /metrics bucket deltas"})
	}
	r.add(metric{Name: "store.snapshots", Unit: "count", Value: delta("eyeorg_journal_snapshots_total"), N: 1})
	hits, misses := delta("eyeorg_blobcache_hits_total"), delta("eyeorg_blobcache_misses_total")
	m := metric{Name: "blob.cache_hit_ratio", Unit: "ratio", N: int(hits + misses)}
	if hits+misses > 0 {
		m.Value = hits / (hits + misses)
	} else {
		m.Value, m.Note = 1, "no byte cache on the read path: every video is resident"
	}
	r.add(m)
}

// scrapeTime times full /metrics scrapes of the first server.
func (run *runner) scrapeTime(d *deployment) error {
	var v []float64
	for i := 0; i < 21; i++ {
		start := time.Now()
		if _, err := scrape(run.hc, d.servers[0].base+"/metrics"); err != nil {
			return err
		}
		v = append(v, float64(time.Since(start))/1e6)
	}
	run.r.add(dist("telemetry.scrape_ms", "ms", v, 0.5))
	return nil
}

// routerHop sends identical 304 revalidations through the router and
// straight to the owning node, interleaved, one connection each.
func (run *runner) routerHop(d *deployment) error {
	c := d.camps[0]
	owner := d.servers[d.owner[0]]
	hc := &http.Client{Timeout: 10 * time.Second, Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	defer hc.CloseIdleConnections()
	one := func(base string, j int) (float64, error) {
		req, err := http.NewRequest("GET", base+"/api/v1/videos/"+c.videoIDs[j], nil)
		if err != nil {
			return 0, err
		}
		req.Header.Set("If-None-Match", c.etags[j])
		start := time.Now()
		resp, err := hc.Do(req)
		if err != nil {
			return 0, err
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotModified {
			return 0, fmt.Errorf("revalidation via %s: status %d", base, resp.StatusCode)
		}
		return float64(time.Since(start)) / 1e6, nil
	}
	var via, direct []float64
	for i := 0; i < 400; i++ {
		j := i % len(c.videoIDs)
		a, err := one(d.router.base, j)
		if err != nil {
			return err
		}
		b, err := one(owner.base, j)
		if err != nil {
			return err
		}
		via, direct = append(via, a), append(direct, b)
	}
	sv, sd := sorted(via), sorted(direct)
	run.r.add(metric{Name: "router.hop_p50_ms", Unit: "ms", Value: quantile(sv, 0.5) - quantile(sd, 0.5), N: len(via),
		Note: "p50 via router minus p50 direct, identical 304s"})
	run.r.add(metric{Name: "router.hop_p99_ms", Unit: "ms", Value: quantile(sv, 0.99) - quantile(sd, 0.99), N: len(via),
		Note: "p99 via router minus p99 direct, identical 304s"})
	return nil
}
