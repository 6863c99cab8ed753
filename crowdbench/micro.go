package main

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/eyeorg/eyeorg/internal/adaptive"
	"github.com/eyeorg/eyeorg/internal/blob"
	"github.com/eyeorg/eyeorg/internal/filtering"
	"github.com/eyeorg/eyeorg/internal/platform"
	"github.com/eyeorg/eyeorg/internal/quality"
	"github.com/eyeorg/eyeorg/internal/store"
	"github.com/eyeorg/eyeorg/internal/survey"
	"github.com/eyeorg/eyeorg/internal/telemetry"
	"github.com/eyeorg/eyeorg/internal/trace"
	"github.com/eyeorg/eyeorg/internal/wire"
)

// Layer microbenchmarks: each times one layer's public functions on the
// inputs this workload generated, in this process, after the servers
// are gone. A benchmark runs microReps repetitions of at least
// microRepTime each and reports the median ns/op (quartiles over the
// repetitions) and allocs/op over all of them.

const (
	microReps    = 7
	microRepTime = 30 * time.Millisecond
)

var microSink any

// micro times op (called with a running index) and returns per-rep
// ns/op and the overall allocs/op. An op that fails would time an
// error path, so the warm-up stops at the first error and any failure
// inside the timed loop fails the whole benchmark.
func micro(op func(i int) error) (nsPerOp []float64, allocs float64, err error) {
	for i := 0; i < 64; i++ {
		if err := op(i); err != nil {
			return nil, 0, err
		}
	}
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	total, idx, failed := 0, 64, 0
	var firstErr error
	for rep := 0; rep < microReps; rep++ {
		start := time.Now()
		n := 0
		for time.Since(start) < microRepTime {
			for k := 0; k < 16; k++ {
				if err := op(idx); err != nil {
					failed++
					firstErr = cmp.Or(firstErr, err)
				}
				idx++
				n++
			}
		}
		nsPerOp = append(nsPerOp, float64(time.Since(start))/float64(n))
		total += n
	}
	runtime.ReadMemStats(&ms1)
	if failed > 0 {
		return nil, 0, fmt.Errorf("%d of %d timed calls failed, first: %w", failed, total, firstErr)
	}
	return nsPerOp, float64(ms1.Mallocs-ms0.Mallocs) / float64(total), nil
}

// timeMicro runs micro on op and reports it as name.
func (run *runner) timeMicro(name, unit string, scale float64, op func(i int) error) error {
	ns, allocs, err := micro(op)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	run.addMicro(name, unit, scale, ns, allocs)
	return nil
}

func (run *runner) addMicro(name, unit string, scale float64, ns []float64, allocs float64) {
	v := make([]float64, len(ns))
	for i, x := range ns {
		v[i] = x / scale
	}
	m := dist(name, unit, v, 0.5)
	m.Note = fmt.Sprintf("median of %d reps, %.3g allocs/op", len(v), allocs)
	run.r.add(m)
}

func (run *runner) microbenchmarks(g *gen) error {
	for _, f := range []func(*gen) error{run.microWire, run.microJSON, run.microQuality, run.microAdaptive,
		run.microBlob, run.microStore, run.microTelemetry, run.microTrace} {
		if err := f(g); err != nil {
			return err
		}
	}
	return run.directHTTP()
}

// workloadBatches are the EYB1 batches this workload's sessions send;
// workloads that send JSON get their events encoded the same way.
func workloadBatches(g *gen) [][]byte {
	var out [][]byte
	for pi, p := range g.sc.personas {
		for ci, c := range g.camps {
			for o, cls := range c.classes {
				if g.sc.batches != nil {
					out = append(out, g.sc.batches[pi][ci][o])
				} else {
					out = append(out, p.encodeBatch(ci, cls))
				}
			}
		}
	}
	return out
}

func (run *runner) microWire(g *gen) error {
	batches := workloadBatches(g)
	dec := wire.NewDecoder()
	records := 0
	for _, b := range batches {
		recs, err := dec.Decode(b)
		if err != nil {
			return fmt.Errorf("decoding a generated batch: %w", err)
		}
		records += len(recs)
	}
	perBatch := float64(records) / float64(len(batches))
	ns, allocs, err := micro(func(i int) error {
		recs, err := dec.Decode(batches[i%len(batches)])
		microSink = recs
		return err
	})
	if err != nil {
		return fmt.Errorf("wire.decode_ns_per_record: %w", err)
	}
	run.addMicro("wire.decode_ns_per_record", "ns", perBatch, ns, allocs)
	run.r.add(metric{Name: "wire.decode_allocs_per_batch", Unit: "count", Value: allocs, N: len(ns)})
	return nil
}

func (run *runner) microJSON(g *gen) error {
	var bodies [][]byte
	for _, p := range g.sc.personas {
		for _, perCamp := range p.answers {
			for _, perVideo := range perCamp {
				for _, a := range perVideo {
					bodies = append(bodies, a.events)
				}
			}
		}
	}
	return run.timeMicro("json.decode_ns_per_body", "ns", 1, func(i int) error {
		var b platform.EventBatch
		dec := json.NewDecoder(bytes.NewReader(bodies[i%len(bodies)]))
		dec.DisallowUnknownFields()
		err := dec.Decode(&b)
		microSink = b
		return err
	})
}

// microQuality times the quality tracker on the records the oracle
// rebuilds from the acknowledged sessions.
func (run *runner) microQuality(g *gen) error {
	if len(g.acked) == 0 {
		return fmt.Errorf("quality: no acknowledged session to time")
	}
	recs := make([]*filtering.SessionRecord, len(g.acked))
	videos := make([][]string, len(g.acked))
	for i, s := range g.acked {
		recs[i] = g.record(s)
		for _, j := range s.videos {
			videos[i] = append(videos[i], g.camps[s.campaign].videoIDs[j])
		}
	}
	trackers := make([]*quality.Tracker, len(recs))
	for i := range trackers {
		trackers[i] = quality.NewTracker(videos[i])
	}
	err := run.timeMicro("quality.observe_ns", "ns", 1, func(i int) error {
		rec := recs[i%len(recs)]
		trackers[i%len(recs)].Observe(rec.Trace.Videos[i%len(rec.Trace.Videos)])
		return nil
	})
	if err != nil {
		return err
	}
	// Each pass over the records completes them into a fresh campaign,
	// so the campaign never grows past this run's size.
	var camp *quality.Campaign
	return run.timeMicro("quality.complete_ns", "ns", 1, func(i int) error {
		if i%len(recs) == 0 || camp == nil {
			camp = quality.NewCampaign(run.w.kind)
		}
		rec := recs[i%len(recs)]
		camp.Complete(rec, filtering.Classify(rec, 0))
		return nil
	})
}

// microAdaptive times the allocator at the sample counts this run's
// campaigns reached: per-video non-control answers of acknowledged
// sessions. Assign is timed on a campaign loaded with every acknowledged
// session of campaign 0, joined and completed in order as the server
// folds them, so it evaluates each video's interval as the server does.
func (run *runner) microAdaptive(g *gen) error {
	c := g.camps[0]
	cfg := adaptive.Config{HalfWidth: 0.0001, Seed: run.seed}
	camp := adaptive.New(run.w.kind, cfg)
	for _, id := range c.videoIDs {
		camp.AddVideo(id)
	}
	perVideo := make([][]float64, len(c.videoIDs))
	for _, s := range g.acked {
		if s.campaign != 0 {
			continue
		}
		rec := g.record(s)
		var assigned []string
		for _, t := range rec.Timeline {
			assigned = append(assigned, t.VideoID)
		}
		for _, a := range rec.AB {
			assigned = append(assigned, a.VideoID)
		}
		camp.NoteJoin(assigned)
		camp.Complete(rec, filtering.Classify(rec, 0))
		for k, t := range rec.Timeline {
			if !t.Control {
				perVideo[s.videos[k]] = append(perVideo[s.videos[k]], t.Submitted.Seconds())
			}
		}
		for k, a := range rec.AB {
			if !a.Control {
				perVideo[s.videos[k]] = append(perVideo[s.videos[k]], abScore(a))
			}
		}
	}
	ests := make([]*adaptive.Estimator, len(perVideo))
	n := 0
	for j, vals := range perVideo {
		ests[j] = &adaptive.Estimator{}
		for _, v := range vals {
			ests[j].Add(v)
		}
		n += len(vals)
	}
	err := run.timeMicro("adaptive.interval_ns", "ns", 1, func(i int) error {
		j := i % len(ests)
		microSink = ests[j].Interval(cfg, c.videoIDs[j])
		return nil
	})
	if err != nil {
		return err
	}
	run.r.add(metric{Name: "adaptive.samples_per_video", Unit: "count", Value: float64(n) / float64(len(perVideo)), N: len(perVideo)})
	kept := 0
	for _, st := range camp.Status() {
		kept += st.Kept
	}
	if kept == 0 {
		return fmt.Errorf("adaptive.assign_ns: no kept sample reached the allocator")
	}
	resolved, _ := camp.Resolved()
	run.r.add(metric{Name: "adaptive.resolved_videos", Unit: "count", Value: float64(resolved), N: len(c.videoIDs),
		Note: "videos of the loaded campaign that resolved; Assign leaves them out of its pool"})
	return run.timeMicro("adaptive.assign_ns", "ns", 1, func(int) error {
		microSink = camp.Assign(c.videoIDs)
		return nil
	})
}

// abScore maps an A/B answer to the allocator's preference score.
func abScore(a *survey.ABResponse) float64 {
	switch {
	case a.PickedA():
		return 1
	case a.PickedB():
		return 0
	}
	return 0.5
}

func (run *runner) microBlob(*gen) error {
	mem, err := blob.Open(blob.Options{})
	if err != nil {
		return err
	}
	dir := filepath.Join(run.work, "micro-blob")
	file, err := blob.Open(blob.Options{Dir: dir, CacheBytes: -1})
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	var hashes []string
	for _, p := range run.payloads {
		ref, _, err := mem.PutBytes(p)
		if err != nil {
			return err
		}
		if _, _, err := file.PutBytes(p); err != nil {
			return err
		}
		hashes = append(hashes, ref.Hash)
	}
	// Each op checks it got the whole payload, so a failing or short
	// read cannot pass as a fast one.
	whole := func(i, n int) error {
		if want := len(run.payloads[i%len(hashes)]); n != want {
			return fmt.Errorf("video %d: %d bytes, uploaded %d", i%len(hashes), n, want)
		}
		return nil
	}
	err = run.timeMicro("blob.hit_ns", "ns", 1, func(i int) error {
		b, ok := mem.Bytes(hashes[i%len(hashes)])
		microSink = b
		if !ok {
			return fmt.Errorf("video %d not resident", i%len(hashes))
		}
		return whole(i, len(b))
	})
	if err != nil {
		return err
	}
	buf := make([]byte, 0, 1<<20)
	return run.timeMicro("blob.miss_us", "us", 1000, func(i int) error {
		rc, _, err := file.Open(hashes[i%len(hashes)])
		if err != nil {
			return err
		}
		b := bytes.NewBuffer(buf[:0])
		_, err = io.Copy(b, rc)
		rc.Close()
		microSink = b.Len()
		if err != nil {
			return err
		}
		return whole(i, b.Len())
	})
}

// microStore times a durable group-commit append on the data dir's
// filesystem, with the workload's event bodies as payloads.
func (run *runner) microStore(g *gen) error {
	dir := filepath.Join(run.work, "micro-store")
	l, err := store.Open(dir, store.Options{Fsync: true, GroupCommit: true})
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	defer l.Close()
	var payloads [][]byte
	for _, p := range g.sc.personas[:8] {
		for _, perVideo := range p.answers[0] {
			payloads = append(payloads, perVideo[0].events)
		}
	}
	var lat []float64
	for i := 0; i < 200; i++ {
		start := time.Now()
		seq, err := l.AppendAsync(payloads[i%len(payloads)])
		if err == nil {
			err = l.WaitDurable(seq)
		}
		if err != nil {
			return fmt.Errorf("durable append: %w", err)
		}
		lat = append(lat, float64(time.Since(start))/1e3)
	}
	m := dist("store.append_durable_us", "us", lat[20:], 0.5)
	m.Note = "AppendAsync+WaitDurable, fsync group commit, one writer"
	run.r.add(m)
	return nil
}

func (run *runner) microTelemetry(*gen) error {
	reg := telemetry.NewRegistry()
	h := reg.Histogram("crowdbench_probe_seconds", "", nil)
	return run.timeMicro("telemetry.observe_ns", "ns", 1, func(i int) error {
		h.Observe(time.Duration(i%5000) * time.Microsecond)
		return nil
	})
}

func (run *runner) microTrace(*gen) error {
	tr := trace.New(trace.Config{SampleRate: 1, Buffer: 1024, Seed: uint64(run.seed) + 1})
	return run.timeMicro("trace.mark_ns", "ns", 1, func(int) error {
		t := tr.Start("events", nil)
		for s := trace.StageReceive; s < trace.StageWrite; s++ {
			t.Mark(s)
		}
		tr.Finish(t, http.StatusAccepted)
		return nil
	})
}

// directHTTP sends the workload's session requests through the
// platform handler in process, configured as the workload's server is,
// and reports the median ingest request time: the e2e ingest latency
// minus this is what the HTTP stack, loopback and (when routed) the
// router add.
func (run *runner) directHTTP() error {
	dir := filepath.Join(run.work, "micro-direct")
	defer os.RemoveAll(dir)
	srv, err := platform.Open(run.w.direct(dir, totalBytes(run.payloads)))
	if err != nil {
		return err
	}
	defer srv.Close()
	h := srv.Handler()
	call := func(method, path string, body []byte, ctype string, want int) ([]byte, time.Duration, error) {
		req := httptest.NewRequest(method, path, bytes.NewReader(body))
		if ctype != "" {
			req.Header.Set("Content-Type", ctype)
		}
		rec := httptest.NewRecorder()
		start := time.Now()
		h.ServeHTTP(rec, req)
		took := time.Since(start)
		if rec.Code != want {
			return nil, 0, fmt.Errorf("in-process %s %s: status %d, want %d", method, path, rec.Code, want)
		}
		return rec.Body.Bytes(), took, nil
	}
	var cr platform.CreateCampaignResponse
	body, _, err := call("POST", "/api/v1/campaigns", []byte(fmt.Sprintf(`{"name":"direct","kind":%q}`, run.w.kind)), "", http.StatusCreated)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(body, &cr); err != nil {
		return err
	}
	c := &campaignSeed{id: cr.ID, payloads: run.payloads, byID: map[string]int{}}
	for j, p := range run.payloads {
		var av platform.AddVideoResponse
		body, _, err := call("POST", "/api/v1/campaigns/"+c.id+"/videos", p, "", http.StatusCreated)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(body, &av); err != nil {
			return err
		}
		c.byID[av.ID] = j
		c.videoIDs = append(c.videoIDs, av.ID)
	}
	c.classes = roundRobinClasses(len(c.videoIDs))
	const sessions = 150
	sc, err := buildScripts(run.seed, run.w, []*campaignSeed{c}, 16, sessions)
	if err != nil {
		return err
	}
	var ingest []float64
	for n := 0; n < sessions; n++ {
		body, _, err := call("POST", "/api/v1/sessions", sc.joins[n], "", http.StatusCreated)
		if err != nil {
			return err
		}
		var jr platform.JoinResponse
		if err := json.Unmarshal(body, &jr); err != nil {
			return err
		}
		p := sc.personas[n%len(sc.personas)]
		path := "/api/v1/sessions/" + jr.Session
		post := func(b []byte, ctype, suffix string) error {
			_, took, err := call("POST", path+suffix, b, ctype, http.StatusAccepted)
			ingest = append(ingest, float64(took)/1e3)
			return err
		}
		idx := make([]int, len(jr.Tests))
		for k, t := range jr.Tests {
			idx[k] = c.byID[t.VideoID]
		}
		ans := func(k int) *answer {
			ctl := 0
			if jr.Tests[k].Control {
				ctl = 1
			}
			return p.answers[0][idx[k]][ctl]
		}
		if run.w.binary {
			if err := post(p.encodeBatch(0, idx), wire.ContentType, "/events"); err != nil {
				return err
			}
		} else if err := post(p.instrEvents, "", "/events"); err != nil {
			return err
		}
		for k, t := range jr.Tests {
			if !run.w.binary {
				if err := post(ans(k).events, "", "/events"); err != nil {
					return err
				}
			}
			if err := post(ans(k).responseBody(t.TestID), "", "/responses"); err != nil {
				return err
			}
		}
	}
	m := dist("http.direct_us", "us", ingest, 0.5)
	m.Note = "events+responses through platform.Server.Handler() in process"
	run.r.add(m)
	return nil
}

func totalBytes(ps [][]byte) int64 {
	var n int64
	for _, p := range ps {
		n += int64(len(p))
	}
	return n
}

// writeSpans writes the traced nominal pass's client spans, one JSON
// object per line, for offline joins with the servers' trace records.
func writeSpans(dir, workload string, seed int64, c *client) error {
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d-spans.jsonl", workload, seed)))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	for _, sp := range c.spans {
		if sp.phase != phNominal {
			continue
		}
		fmt.Fprintf(bw, `{"name":%q,"parent_session":%d,"phase":%d,"trace_id":%q,"due_ns":%d,"start_ns":%d,"conn_ns":%d,"end_ns":%d,"status":%d}`+"\n",
			routeNames[sp.route], sp.session, sp.phase, hex.EncodeToString(sp.traceID[:]), sp.due, sp.start, sp.conn, sp.end, sp.status)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
