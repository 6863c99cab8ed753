// Command crowdbench is the platform's end-to-end benchmark. It starts
// the real eyeorg-server (and, for one workload, eyeorg-router)
// binaries as separate processes, drives them over loopback TCP from
// this one process with at most nproc OS threads and two connections,
// checks every output, and prints every metric by name with its unit
// and sample count; the last line of standard output is a one-line JSON
// result.
//
// Usage (normally through run.sh, which builds the binaries first):
//
//	crowdbench -bin DIR -root DIR -workload durable-json -seed 1 -seconds 25 -trace 0
//	crowdbench compare A.json B.json ...   # run-to-run medians and quartiles
//
// With -trace 0 a run measures the end-to-end metrics: set-up time,
// closed-loop capacity, latency at two fixed open-loop session rates,
// server CPU and memory, disk use, and recovery after kill -9. With
// -trace 1 it measures the per-layer metrics instead: it runs the
// servers with every request traced, joins the generator's spans with
// the servers' /debug/traces records by trace ID, and times each
// layer's public functions on the inputs the workload generated. See
// DESIGN.md for the workloads and what each metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"
)

// gatedMetrics reads the names of the one-line result's metrics from
// BENCHMARK.json at the checkout root: end_to_end for an untraced run,
// per_layer for a traced one. Everything else is measured, printed and
// written to the report but not gated; DESIGN.md says why.
func gatedMetrics(root string, traced bool) ([]string, error) {
	var b struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := readJSON(filepath.Join(root, "BENCHMARK.json"), &b); err != nil {
		return nil, err
	}
	list := b.EndToEnd
	if traced {
		list = b.PerLayer
	}
	var names []string
	for _, m := range list {
		names = append(names, m.Name)
	}
	return names, nil
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "crowdbench: "+format+"\n", args...)
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compare(os.Stdout, os.Args[2:]); err != nil {
			logf("%v", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(benchMain())
}

// benchMain runs one benchmark pass and returns the exit code, so that
// its deferred clean-up runs on every path.
func benchMain() int {
	var (
		name    = flag.String("workload", "", "workload name")
		seed    = flag.Int64("seed", 1, "input seed")
		secs    = flag.Int("seconds", 25, "measured seconds per run")
		traced  = flag.Int("trace", 0, "1 = traced per-layer run")
		bin     = flag.String("bin", "", "directory holding eyeorg-server and eyeorg-router")
		root    = flag.String("root", ".", "checkout root")
		outDir  = flag.String("out", "", "directory for reports, spans and logs (default <root>/.bench_build/out)")
		workDir = flag.String("work", "", "directory for data dirs (default <root>/.bench_build/work)")
	)
	flag.Parse()
	runtime.GOMAXPROCS(nproc())
	w, err := findWorkload(*name)
	if err != nil {
		logf("%v", err)
		return 2
	}
	if *bin == "" || *secs < 1 {
		logf("-bin is required and -seconds must be at least 1")
		return 2
	}
	if *outDir == "" {
		*outDir = filepath.Join(*root, ".bench_build", "out")
	}
	if *workDir == "" {
		*workDir = filepath.Join(*root, ".bench_build", "work")
	}
	work := filepath.Join(*workDir, fmt.Sprintf("%s-%d", w.name, os.Getpid()))
	for _, d := range []string{*outDir, work} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			logf("%v", err)
			return 1
		}
	}
	defer os.RemoveAll(work)
	r := &report{Workload: w.name, Seed: *seed, Seconds: *secs, Traced: *traced == 1, Correct: true,
		Host: hostFacts(*root, work)}
	run := &runner{w: w, seed: *seed, secs: *secs, bin: *bin, work: work, out: *outDir, r: r,
		hc: &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}}}
	names, err := gatedMetrics(*root, *traced == 1)
	if err != nil {
		logf("%v", err)
		return 2
	}
	if *traced == 1 {
		err = run.traced()
	} else {
		err = run.endToEnd()
	}
	run.stopAll()
	if err != nil {
		r.problem("%v", err)
	}
	base := fmt.Sprintf("%s-seed%d-trace%d", w.name, *seed, *traced)
	if !r.Correct {
		keepLogs(work, filepath.Join(*outDir, base+"-logs"))
	}
	r.printHuman(os.Stdout)
	line, lerr := r.resultLine(names)
	if werr := writeJSON(filepath.Join(*outDir, base+".json"), r); werr != nil {
		logf("writing report: %v", werr)
	}
	if lerr != nil {
		logf("%v", lerr)
		return 1
	}
	if err != nil {
		// No result line: the run could not measure what it promised.
		logf("%v", err)
		return 1
	}
	fmt.Println(string(line))
	if !r.Correct {
		return 1
	}
	return 0
}

// keepLogs copies the platform processes' logs out of the run's work
// dir, which is removed on exit, so a failed run can be diagnosed.
func keepLogs(work, dst string) {
	logs, _ := filepath.Glob(filepath.Join(work, "*.log"))
	if len(logs) == 0 || os.MkdirAll(dst, 0o755) != nil {
		return
	}
	for _, l := range logs {
		if b, err := os.ReadFile(l); err == nil {
			_ = os.WriteFile(filepath.Join(dst, filepath.Base(l)), b, 0o644)
		}
	}
}

// runner holds one run's state.
type runner struct {
	w    *workload
	seed int64
	secs int
	bin  string
	work string
	out  string
	r    *report
	hc   *http.Client

	payloads [][]byte
	live     []*deployment
}

func (run *runner) stopAll() {
	for _, d := range run.live {
		d.kill()
	}
	run.live = nil
}

func (run *runner) phase(frac float64) time.Duration {
	return time.Duration(frac * float64(run.secs) * float64(time.Second))
}

// deploy runs one timed setup.
func (run *runner) deploy(tag string, traced bool) (*deployment, time.Duration, error) {
	start := time.Now()
	d, err := setup(run.w, setupOpts{bin: run.bin, work: run.work, tag: tag, traced: traced, payloads: run.payloads}, run.hc)
	took := time.Since(start)
	if err != nil {
		return nil, 0, err
	}
	run.live = append(run.live, d)
	return d, took, nil
}

func (run *runner) teardown(d *deployment) {
	d.kill()
	for i, x := range run.live {
		if x == d {
			run.live = append(run.live[:i], run.live[i+1:]...)
			break
		}
	}
	for _, dir := range d.dirs {
		_ = os.RemoveAll(dir)
	}
}

// prepare captures the videos and, after a setup, generates every
// session script for the seeded campaigns.
func (run *runner) prepare(d *deployment, nJoins int) (*gen, error) {
	nPersonas := 256
	if run.w.routed {
		nPersonas = 128
	}
	sc, err := buildScripts(run.seed, run.w, d.camps, nPersonas, nJoins)
	if err != nil {
		return nil, err
	}
	if err := d.learnETags(run.hc); err != nil {
		return nil, err
	}
	return &gen{w: run.w, sc: sc, camps: d.camps}, nil
}

// setupReps is how many times a run sets the deployment up: half
// before the measured phases and half after them, so that setup_s, the
// median of all of them, samples the host at both ends of the run.
const setupReps = 20

// recoveryReps is how many kill -9 / restart cycles recovery_s is the
// median of.
const recoveryReps = 9

// Phase lengths as shares of -seconds. The nominal and high phases are
// interleaved windows of one second; the closed-loop capacity phase
// counts completions in half-second windows.
const (
	warmShare     = 0.1
	nominalShare  = 0.4
	highShare     = 0.25
	capacityShare = 0.2
	window        = time.Second
	capWindow     = window / 2
)

func (run *runner) windows(share float64) int {
	n := int(share*float64(run.secs) + 0.5)
	if n < 1 {
		n = 1
	}
	return n
}

// endToEnd runs the untraced measurement: set-ups, a warm-up at the
// nominal rate, interleaved nominal and high windows, the output check,
// restarts after kill -9, and closed-loop capacity last, so that the
// run-to-run variation of capacity does not change the state the other
// phases see.
func (run *runner) endToEnd() error {
	w, r := run.w, run.r
	var err error
	if run.payloads, err = capturePayloads(corpusSeed, w.videos); err != nil {
		return err
	}
	var setups []float64
	var d *deployment
	for i := 0; i < setupReps/2; i++ {
		dep, took, err := run.deploy(fmt.Sprintf("setup%d", i), false)
		if err != nil {
			return err
		}
		setups = append(setups, took.Seconds())
		if i < setupReps/2-1 {
			run.teardown(dep)
		} else {
			d = dep
		}
	}

	nWarm, nNom, nHigh := run.windows(warmShare), run.windows(nominalShare), run.windows(highShare)
	warm := schedule(run.seed*7+1, w.nominal, w.nominal, nWarm, 0, window)
	for i := range warm {
		warm[i].phase = phWarm
	}
	slots := schedule(run.seed*7+2, w.nominal, w.high, nNom, nHigh, window)
	phaseOf := make([]uint8, nNom+nHigh)
	for _, s := range slots {
		phaseOf[s.window] = s.phase
	}
	capD := run.phase(capacityShare)
	nJoins := len(warm) + len(slots) + capacityJoins(w, capD)
	g, err := run.prepare(d, nJoins)
	if err != nil {
		return err
	}
	measured := time.Duration(nNom+nHigh) * window
	var polls []poll
	if w.dashRate > 0 {
		polls = append(polls, dashboardPolls(run.seed*7+3, w.dashRate, measured, d.camps)...)
	}
	if w.revalRate > 0 {
		polls = append(polls, revalidations(run.seed*7+4, w.revalRate, measured, d.camps)...)
	}
	// runPolls issues polls in order, so the merged streams must be too.
	sort.SliceStable(polls, func(i, j int) bool { return polls[i].at < polls[j].at })
	r.Inputs = hashArrivals(g.sc.digest, slotOffsets(warm), slotOffsets(slots), pollOffsets(polls))
	g.c = newClient(d.front, nproc(), false, run.seed)

	run.hc.CloseIdleConnections()
	g.openLoop(warm, nWarm, window, nil, nil)
	// CPU and resident memory of the server side are sampled at every
	// window boundary.
	cpuAt := make([]float64, nNom+nHigh+1)
	rssAt := make([]float64, nNom+nHigh+1)
	steal0, jiffies0 := stealCounter()
	alloc0, wrote0, err := run.volumes(d)
	if err != nil {
		return err
	}
	var sampleErr error
	done := g.openLoop(slots, nNom+nHigh, window, func(start time.Time, wg *sync.WaitGroup) {
		if len(polls) > 0 {
			g.runPolls(polls, start, window, func(k int) uint8 { return phaseOf[min(k, len(phaseOf)-1)] }, wg)
		}
	}, func(k int) {
		c, err := run.cpu(d)
		if err == nil {
			rssAt[k], err = run.rssMB(d, "VmRSS")
		}
		if err != nil {
			sampleErr = err
		}
		cpuAt[k] = c
	})
	steal1, jiffies1 := stealCounter()
	alloc1, wrote1, err := run.volumes(d)
	if err != nil {
		return err
	}
	if sampleErr != nil {
		return sampleErr
	}
	sessions := 0
	for _, n := range done {
		sessions += n
	}
	if sessions == 0 {
		return fmt.Errorf("no session completed in the measured windows")
	}
	perSession := func(v float64) float64 { return v / float64(sessions) / 1024 }
	r.add(metric{Name: "server_alloc_kb_per_session", Unit: "kB", Value: perSession(alloc1 - alloc0), N: sessions,
		Note: "heap bytes the eyeorg-server processes allocated over the measured windows (/debug/vars memstats.TotalAlloc), per session completed in them"})
	r.add(metric{Name: "server_write_kb_per_session", Unit: "kB", Value: perSession(wrote1 - wrote0), N: sessions,
		Note: "bytes every server-side process wrote to files and sockets over the measured windows (/proc/<pid>/io wchar), per session completed in them"})
	r.add(metric{Name: "server_cpu_ms_per_session", Unit: "ms", Value: (cpuAt[len(cpuAt)-1] - cpuAt[0]) / float64(sessions), N: sessions,
		Note: "CPU of every server-side process over the measured windows, per session completed in them"})
	m := dist("server_rss_mb", "MB", rssAt[1:], 0.5)
	m.Note = "VmRSS summed over server-side processes, median of the samples at window ends"
	r.add(m)
	hwm, err := run.rssMB(d, "VmHWM")
	if err != nil {
		return err
	}
	r.add(metric{Name: "server_hwm_mb", Unit: "MB", Value: hwm, N: len(d.procs()),
		Note: "peak VmHWM summed over server-side processes, after the measured windows"})
	if jiffies1 > jiffies0 {
		// CPU time the hypervisor gave other guests while this guest
		// wanted it: the main source of run-to-run noise on a shared host.
		r.Host["steal_pct_measured"] = fmt.Sprintf("%.1f", 100*(steal1-steal0)/(jiffies1-jiffies0))
	}
	run.latencies(g, phaseOf)
	run.generatorHealth(g)

	if w.durable {
		var total int64
		for _, dir := range d.dirs {
			n, err := dirBytes(dir)
			if err != nil {
				return err
			}
			total += n
		}
		r.add(metric{Name: "disk_bytes_per_session", Unit: "B", Value: float64(total) / float64(len(g.acked)), N: len(g.acked)})
	}

	bodies, problems := g.checkResults(run.hc, d.front)
	for _, p := range problems {
		r.problem("%s", p)
	}
	g.c.hc.CloseIdleConnections()
	var rec []float64
	for i := 0; i < recoveryReps && len(problems) == 0; i++ {
		t, err := recoverOnce(d, w, run.hc, bodies[0])
		if err != nil {
			r.problem("recovery %d: %v", i, err)
			break
		}
		rec = append(rec, t.Seconds())
	}
	if len(rec) > 0 {
		m := dist("recovery_s", "s", rec, 0.5)
		m.Note = "kill -9 to identical /results; median of restarts"
		if !w.durable {
			m.Note = "in-memory: kill -9 to the restarted server answering; nothing to recover"
		}
		r.add(m)
	}

	if !w.durable {
		// The restarts emptied the in-memory server: seed it again. A
		// fresh server mints the same IDs, so the scripts still apply,
		// and its results will cover the capacity sessions only.
		if err := d.reseed(w, run.payloads, run.hc); err != nil {
			return err
		}
		g.acked = g.acked[:0]
	}
	run.hc.CloseIdleConnections()
	counts := g.closedLoop(phCapacity, nproc(), capD, capWindow)
	rates := make([]float64, len(counts))
	total := 0
	for i, n := range counts {
		rates[i] = float64(n) / capWindow.Seconds()
		total += n
	}
	m = dist("sessions_per_s", "1/s", rates, 0.5)
	m.N = total
	m.Note = fmt.Sprintf("closed loop, %d sessions in flight; median of %v windows", nproc(), capWindow)
	r.add(m)
	if _, problems := g.checkResults(run.hc, d.front); len(problems) > 0 {
		for _, p := range problems {
			r.problem("after the capacity phase: %s", p)
		}
	}
	run.countRequests(g)
	if g.batchMisses.Load() > 0 {
		r.add(metric{Name: "gen.batch_encoded_late", Unit: "count", Value: float64(g.batchMisses.Load()), N: 1,
			Note: "EYB1 batches encoded inside the timed loop because the assignment was not predicted"})
	}
	r.add(metric{Name: "sessions_acked", Unit: "count", Value: float64(len(g.acked)), N: 1})
	run.teardown(d)
	for i := setupReps / 2; i < setupReps; i++ {
		dep, took, err := run.deploy(fmt.Sprintf("setup%d", i), false)
		if err != nil {
			return err
		}
		setups = append(setups, took.Seconds())
		run.teardown(dep)
	}
	m = dist("setup_s", "s", setups, 0.5)
	m.Note = fmt.Sprintf("exec of every server process to campaigns seeded; median of %d setups, half before and half after the measured phases", len(setups))
	r.add(m)
	return nil
}

// capacityJoins is how many sessions to generate for a closed-loop
// phase of length d: six times the capacity the rates were frozen at
// (the high rate is about 70% of it), so a much faster platform still
// finds scripts to run. Running out fails the run.
func capacityJoins(w *workload, d time.Duration) int {
	return int(6*w.high/0.7*d.Seconds()) + 64
}

func slotOffsets(ss []slot) []time.Duration {
	out := make([]time.Duration, len(ss))
	for i, s := range ss {
		out[i] = s.at
	}
	return out
}

func pollOffsets(ps []poll) []time.Duration {
	out := make([]time.Duration, len(ps))
	for i, p := range ps {
		out[i] = p.at
	}
	return out
}

// cpu sums user+sys CPU milliseconds over the deployment's processes.
func (run *runner) cpu(d *deployment) (float64, error) {
	var total float64
	for _, p := range d.procs() {
		v, err := cpuMs(p.pid())
		if err != nil {
			return 0, err
		}
		total += v
	}
	return total, nil
}

// volumes sums the heap bytes the platform servers have allocated so
// far (memstats.TotalAlloc on their /debug/vars) and the bytes every
// server-side process has written (wchar).
func (run *runner) volumes(d *deployment) (alloc, wrote float64, err error) {
	for _, s := range d.servers {
		var vars struct {
			Memstats struct{ TotalAlloc uint64 } `json:"memstats"`
		}
		body, status, err := get(run.hc, s.debug+"/debug/vars")
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("GET %s/debug/vars: status %d", s.debug, status)
		}
		if err == nil {
			err = json.Unmarshal(body, &vars)
		}
		if err != nil {
			return 0, 0, err
		}
		alloc += float64(vars.Memstats.TotalAlloc)
	}
	for _, p := range d.procs() {
		n, err := writtenBytes(p.pid())
		if err != nil {
			return 0, 0, err
		}
		wrote += float64(n)
	}
	return alloc, wrote, nil
}

// rssMB sums one memory field of /proc/<pid>/status over the
// deployment's processes.
func (run *runner) rssMB(d *deployment, field string) (float64, error) {
	var kb int64
	for _, p := range d.procs() {
		v, err := statusKB(p.pid(), field)
		if err != nil {
			return 0, err
		}
		kb += v
	}
	return float64(kb) / 1024, nil
}

// latencies reports request latency, timed from when each request was
// due. A percentile is taken per one-second window and the median over
// windows is reported, so one stall moves one window, not the run.
func (run *runner) latencies(g *gen, phaseOf []uint8) {
	r := run.r
	byWindow := func(routes ...uint8) [][]float64 {
		out := make([][]float64, len(phaseOf))
		for _, sp := range g.c.spans {
			if (sp.phase != phNominal && sp.phase != phHigh) || int(sp.window) >= len(out) {
				continue
			}
			for _, rt := range routes {
				if sp.route == rt {
					out[sp.window] = append(out[sp.window], float64(sp.end-sp.due)/1e6)
				}
			}
		}
		return out
	}
	add := func(name string, phase uint8, q float64, per [][]float64, load string) {
		var vals []float64
		n := 0
		for k, v := range per {
			if phaseOf[k] == phase && len(v) > 0 {
				vals = append(vals, quantile(sorted(v), q))
				n += len(v)
			}
		}
		m := dist(name, "ms", vals, 0.5)
		m.N = n
		m.Note = fmt.Sprintf("%s; median over %d one-second windows", load, len(vals))
		r.add(m)
	}
	nom := fmt.Sprintf("open loop at %.0f sessions/s", run.w.nominal)
	high := fmt.Sprintf("open loop at %.0f sessions/s", run.w.high)
	ingest, video := byWindow(rEvents, rResponse), byWindow(rVideo)
	add("ingest_p50_ms", phNominal, 0.5, ingest, nom)
	add("ingest_p90_ms", phNominal, 0.9, ingest, nom)
	add("ingest_p99_ms", phNominal, 0.99, ingest, nom)
	add("ingest_p90_ms.high", phHigh, 0.9, ingest, high)
	add("ingest_p99_ms.high", phHigh, 0.99, ingest, high)
	add("video_p50_ms", phNominal, 0.5, video, nom)
	add("video_p90_ms", phNominal, 0.9, video, nom)
	add("video_p99_ms", phNominal, 0.99, video, nom)
	if run.w.dashRate > 0 {
		dash := byWindow(rResults, rAnalytics)
		load := fmt.Sprintf("polls at %.0f/s beside sessions at %.0f/s", run.w.dashRate, run.w.nominal)
		add("dashboard_p50_ms", phNominal, 0.5, dash, load)
		add("dashboard_p99_ms", phNominal, 0.99, dash, load)
	}
	if run.w.revalRate > 0 {
		reval := byWindow(rReval)
		load := fmt.Sprintf("revalidations at %.0f/s beside sessions at %.0f/s", run.w.revalRate, run.w.nominal)
		add("reval_p50_ms", phNominal, 0.5, reval, load)
		add("reval_p99_ms", phNominal, 0.99, reval, load)
	}
}

// generatorHealth reports how late the generator ran and how long
// requests waited for one of its two connections.
func (run *runner) generatorHealth(g *gen) {
	lag := make([]float64, len(g.lag))
	for i, l := range g.lag {
		lag[i] = float64(l) / 1e6
	}
	run.r.add(dist("gen.lag_p99_ms", "ms", lag, 0.99))
	var wait []float64
	for _, sp := range g.c.spans {
		if sp.phase != phWarm && sp.phase != phCapacity {
			wait = append(wait, float64(sp.conn-sp.start)/1e6)
		}
	}
	run.r.add(dist("gen.conn_wait_p99_ms", "ms", wait, 0.99))
}

func (run *runner) countRequests(g *gen) {
	r := run.r
	if g.ranOut.Load() {
		r.problem("the generated sessions ran out before a closed-loop phase ended")
	}
	r.Attempted, r.Failed = g.c.attempted.Load(), g.c.failed.Load()
	if n := g.c.mismatch.Load(); n > 0 {
		r.problem("%d video responses differ from the uploaded payloads", n)
	}
	if r.Failed > 0 {
		r.problem("%d of %d requests failed or got an unexpected status", r.Failed, r.Attempted)
	}
	frac := 0.0
	if r.Attempted > 0 {
		frac = float64(r.Failed) / float64(r.Attempted)
	}
	r.add(metric{Name: "error_frac", Unit: "ratio", Value: frac, N: int(r.Attempted)})
}

func writeJSON(path string, v any) error {
	b, err := jsonIndent(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// compare prints, for every metric in the given reports, the median
// over runs and the run-to-run quartiles, grouped by workload and
// traced flag; it is the stdlib-only stand-in for benchstat.
func compare(out *os.File, files []string) error {
	if len(files) == 0 {
		return fmt.Errorf("usage: crowdbench compare REPORT.json ...")
	}
	type key struct{ group, metric string }
	vals := map[key][]float64{}
	units := map[key]string{}
	var order []key
	for _, f := range files {
		var r report
		if err := readJSON(f, &r); err != nil {
			return fmt.Errorf("%s: %w", f, err)
		}
		group := fmt.Sprintf("%s trace=%v", r.Workload, r.Traced)
		for _, m := range r.Metrics {
			k := key{group, m.Name}
			if _, ok := vals[k]; !ok {
				order = append(order, k)
			}
			vals[k] = append(vals[k], m.Value)
			units[k] = m.Unit
		}
	}
	sort.SliceStable(order, func(i, j int) bool { return order[i].group < order[j].group })
	last := ""
	for _, k := range order {
		if k.group != last {
			fmt.Fprintf(out, "== %s\n", k.group)
			last = k.group
		}
		s := sorted(vals[k])
		q1, med, q3 := quartiles(s)
		spread := 0.0
		if med != 0 {
			spread = (q3 - q1) / med
		}
		fmt.Fprintf(out, "%-34s median %12.6g %-6s runs=%d q1=%.6g q3=%.6g iqr/median=%.3f\n",
			k.metric, med, units[k], len(s), q1, q3, spread)
	}
	return nil
}

// quartiles matches Python's statistics.quantiles(values, n=4) with
// the default exclusive method, which is how run-to-run spread is
// judged.
func quartiles(s []float64) (q1, med, q3 float64) {
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(p float64) float64 {
		m := float64(n + 1)
		j := int(p * m)
		delta := p*m - float64(j)
		if j < 1 {
			return s[0]
		}
		if j >= n {
			return s[n-1]
		}
		return s[j-1] + delta*(s[j]-s[j-1])
	}
	return at(0.25), at(0.5), at(0.75)
}

func jsonIndent(v any) ([]byte, error) { return json.MarshalIndent(v, "", "  ") }

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}
