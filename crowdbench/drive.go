package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptrace"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/eyeorg/eyeorg/internal/platform"
	"github.com/eyeorg/eyeorg/internal/wire"
)

// Routes a span can name. The first five are a participant session's
// requests; results and analytics are experimenter polls; reval is the
// video revalidation stream.
const (
	rJoin = iota
	rTests
	rVideo
	rEvents
	rResponse
	rResults
	rAnalytics
	rReval
	numRoutes
)

var routeNames = [numRoutes]string{"join", "tests", "video", "events", "response", "results", "analytics", "reval"}

// Phases of a run; every span records the phase its session (or poll)
// was scheduled in.
const (
	phWarm = iota
	phCapacity
	phNominal
	phHigh
	numPhases
)

// span is one client-side request: when it was due, when the generator
// issued it, when it got a connection, and when the reply was read.
// Times are nanoseconds since the client's epoch.
type span struct {
	due, start, conn, end int64
	route, phase          uint8
	window                uint16 // measurement window of the session
	status                int16
	session               int32 // parent: the session index, -1 for polls
	traceID               [16]byte
}

// client is the generator's HTTP side: one transport capped at two
// connections, shared by every session and poll, recording one span
// per request.
type client struct {
	hc     *http.Client
	tr     *http.Transport
	base   string
	epoch  time.Time
	traced bool
	tidRnd uint64
	tidSeq atomic.Uint64

	mu    sync.Mutex
	spans []span

	attempted atomic.Int64
	failed    atomic.Int64
	mismatch  atomic.Int64 // served bytes that differ from the upload
}

func newClient(base string, conns int, traced bool, seed int64) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		MaxIdleConns:        conns,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &client{
		hc: &http.Client{Transport: tr, Timeout: 30 * time.Second,
			CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse }},
		tr:     tr,
		base:   base,
		epoch:  time.Now(),
		traced: traced,
		tidRnd: uint64(seed)*0x9e3779b97f4a7c15 + 1,
		spans:  make([]span, 0, 1<<16),
	}
}

func (c *client) since(t time.Time) int64 { return int64(t.Sub(c.epoch)) }

// request describes one call.
type request struct {
	route, phase uint8
	window       uint16
	method, path string
	body         []byte
	ctype        string
	ifNoneMatch  string
	rangeHdr     string
	want         int
	due          time.Time
	session      int32
}

// do issues one request and records its span. It returns the body and
// whether the status matched; a mismatch or transport error counts as
// a failed request.
func (c *client) do(rq request) ([]byte, bool) {
	c.attempted.Add(1)
	var bodyR io.Reader
	if rq.body != nil {
		bodyR = bytes.NewReader(rq.body)
	}
	var gotConn time.Time
	ctx := httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
		GotConn: func(httptrace.GotConnInfo) { gotConn = time.Now() },
	})
	req, err := http.NewRequestWithContext(ctx, rq.method, c.base+rq.path, bodyR)
	if err != nil {
		c.failed.Add(1)
		return nil, false
	}
	if rq.ctype != "" {
		req.Header.Set("Content-Type", rq.ctype)
	}
	if rq.ifNoneMatch != "" {
		req.Header.Set("If-None-Match", rq.ifNoneMatch)
	}
	if rq.rangeHdr != "" {
		req.Header.Set("Range", rq.rangeHdr)
	}
	sp := span{route: rq.route, phase: rq.phase, window: rq.window, session: rq.session}
	if c.traced {
		n := c.tidSeq.Add(1)
		binary.BigEndian.PutUint64(sp.traceID[:8], splitmix(c.tidRnd+n))
		binary.BigEndian.PutUint64(sp.traceID[8:], splitmix(c.tidRnd+n+1<<40))
		req.Header.Set("traceparent", "00-"+hex.EncodeToString(sp.traceID[:])+"-"+hex.EncodeToString(sp.traceID[:8])+"-01")
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	var body []byte
	status := 0
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		status = resp.StatusCode
	}
	end := time.Now()
	if gotConn.IsZero() {
		gotConn = start
	}
	sp.due, sp.start, sp.conn, sp.end = c.since(rq.due), c.since(start), c.since(gotConn), c.since(end)
	sp.status = int16(status)
	c.mu.Lock()
	c.spans = append(c.spans, sp)
	c.mu.Unlock()
	if err != nil || status != rq.want {
		c.failed.Add(1)
		if err == nil {
			err = fmt.Errorf("status %d, want %d: %.200s", status, rq.want, body)
		}
		logf("%s %s: %v", rq.method, rq.path, err)
		return body, false
	}
	return body, true
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e9b5
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// ackedSession is a session whose every request was acknowledged, as
// the output check needs it.
type ackedSession struct {
	campaign, persona int
	worker            string
	videos            []int // per test, index into the campaign's videos
	control           []bool
}

// gen drives participant sessions against one deployment.
type gen struct {
	c     *client
	w     *workload
	sc    *scripts
	camps []*campaignSeed

	next        atomic.Int64 // next session index
	ranOut      atomic.Bool  // a closed loop used up the generated sessions
	mu          sync.Mutex
	acked       []ackedSession
	batchMisses atomic.Int64
	lag         []int64 // open-loop arrival lateness, ns
}

// session runs one participant from join to last response. due is the
// session's scheduled arrival; every later request is due when the
// previous reply arrived.
func (g *gen) session(n int, due time.Time, phase uint8, window uint16) bool {
	ci := g.sc.joinCID[n]
	camp := g.camps[ci]
	pi := n % len(g.sc.personas)
	p := g.sc.personas[pi]
	call := func(route uint8, method, path string, body []byte, ctype string, want int) ([]byte, bool) {
		b, ok := g.c.do(request{route: route, phase: phase, window: window, session: int32(n),
			method: method, path: path, body: body, ctype: ctype, want: want, due: due})
		due = time.Now()
		return b, ok
	}
	body, ok := call(rJoin, "POST", "/api/v1/sessions", g.sc.joins[n], "", http.StatusCreated)
	if !ok {
		return false
	}
	var jr platform.JoinResponse
	if err := json.Unmarshal(body, &jr); err != nil || len(jr.Tests) == 0 {
		g.c.failed.Add(1)
		return false
	}
	idx := make([]int, len(jr.Tests))
	ctl := make([]bool, len(jr.Tests))
	for k, t := range jr.Tests {
		j, ok := camp.byID[t.VideoID]
		if !ok {
			g.c.failed.Add(1)
			return false
		}
		idx[k], ctl[k] = j, t.Control
	}
	sessPath := "/api/v1/sessions/" + jr.Session
	if _, ok := call(rTests, "GET", sessPath+"/tests", nil, "", http.StatusOK); !ok {
		return false
	}
	ans := func(k int) *answer {
		c := 0
		if ctl[k] {
			c = 1
		}
		return p.answers[ci][idx[k]][c]
	}
	video := func(k int) bool {
		body, ok := call(rVideo, "GET", "/api/v1/videos/"+jr.Tests[k].VideoID, nil, "", http.StatusOK)
		if ok && !bytes.Equal(body, camp.payloads[idx[k]]) {
			g.c.mismatch.Add(1)
			return false
		}
		return ok
	}
	post := func(route uint8, path string, b []byte, ctype string) bool {
		_, ok := call(route, "POST", path, b, ctype, http.StatusAccepted)
		return ok
	}
	if g.w.binary {
		for k := range jr.Tests {
			if !video(k) {
				return false
			}
		}
		if !post(rEvents, sessPath+"/events", g.batchFor(pi, ci, idx), wire.ContentType) {
			return false
		}
		for k, t := range jr.Tests {
			if !post(rResponse, sessPath+"/responses", ans(k).responseBody(t.TestID), "") {
				return false
			}
		}
	} else {
		if !post(rEvents, sessPath+"/events", p.instrEvents, "") {
			return false
		}
		for k, t := range jr.Tests {
			if !video(k) || !post(rEvents, sessPath+"/events", ans(k).events, "") ||
				!post(rResponse, sessPath+"/responses", ans(k).responseBody(t.TestID), "") {
				return false
			}
		}
	}
	g.mu.Lock()
	g.acked = append(g.acked, ackedSession{campaign: ci, persona: pi, worker: g.sc.workers[n], videos: idx, control: ctl})
	g.mu.Unlock()
	return true
}

// batchFor returns the pre-encoded EYB1 batch for the assignment, or
// encodes one (and counts the miss) when the server handed out an
// assignment the round-robin classes did not predict.
func (g *gen) batchFor(pi, ci int, idx []int) []byte {
	for o, cls := range g.camps[ci].classes {
		if slices.Equal(cls, idx) {
			return g.sc.batches[pi][ci][o]
		}
	}
	g.batchMisses.Add(1)
	return g.sc.personas[pi].encodeBatch(ci, idx)
}

// closedLoop keeps `workers` sessions in flight back to back until d
// has passed and lets the sessions in flight finish. It returns the
// number of sessions completed in each whole window of the given
// length.
func (g *gen) closedLoop(phase uint8, workers int, d, window time.Duration) []int {
	start := time.Now()
	deadline := start.Add(d)
	counts := make([]int, int(d/window))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				n := int(g.next.Add(1) - 1)
				if n >= len(g.sc.joins) {
					g.ranOut.Store(true)
					return
				}
				if g.session(n, time.Now(), phase, 0) {
					if k := int(time.Since(start) / window); k < len(counts) {
						mu.Lock()
						counts[k]++
						mu.Unlock()
					}
				}
			}
		}()
	}
	wg.Wait()
	return counts
}

// slot is one scheduled session arrival.
type slot struct {
	at     time.Duration
	phase  uint8
	window uint16
}

// schedule interleaves nNom nominal-rate and nHigh high-rate windows of
// length win, spreading the high windows evenly, each with its own
// seeded Poisson arrivals, so both rates see the same stretch of
// machine conditions.
func schedule(seed int64, nominal, high float64, nNom, nHigh int, win time.Duration) []slot {
	var out []slot
	total := nNom + nHigh
	for k := 0; k < total; k++ {
		phase, rate := uint8(phNominal), nominal
		if (k+1)*nHigh/total > k*nHigh/total {
			phase, rate = phHigh, high
		}
		base := time.Duration(k) * win
		for _, a := range poissonArrivals(seed+int64(k)*7919, rate, win) {
			out = append(out, slot{at: base + a, phase: phase, window: uint16(k)})
		}
	}
	return out
}

// openLoop starts one session per scheduled arrival, regardless of how
// earlier sessions fare, and waits for all of them. onWindow, when set,
// is called at the start of every window and once after the last. It
// returns the number of completed sessions per window.
func (g *gen) openLoop(slots []slot, windows int, win time.Duration, side func(start time.Time, wg *sync.WaitGroup), onWindow func(k int)) []int {
	start := time.Now().Add(2 * time.Millisecond)
	var wg sync.WaitGroup
	if side != nil {
		side(start, &wg)
	}
	if onWindow != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k <= windows; k++ {
				time.Sleep(time.Until(start.Add(time.Duration(k) * win)))
				onWindow(k)
			}
		}()
	}
	done := make([]atomic.Int64, windows)
	for _, s := range slots {
		due := start.Add(s.at)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		n := int(g.next.Add(1) - 1)
		if n >= len(g.sc.joins) {
			g.c.failed.Add(1)
			continue
		}
		g.mu.Lock()
		g.lag = append(g.lag, int64(time.Since(due)))
		g.mu.Unlock()
		wg.Add(1)
		go func(n int, due time.Time, s slot) {
			defer wg.Done()
			if g.session(n, due, s.phase, s.window) {
				done[s.window].Add(1)
			}
		}(n, due, s)
	}
	wg.Wait()
	out := make([]int, windows)
	for k := range out {
		out[k] = int(done[k].Load())
	}
	return out
}

// poll is one scheduled non-session request (dashboard poll or video
// revalidation).
type poll struct {
	at   time.Duration
	rq   request
	want []byte // expected body for 200/206, nil when not checked
}

// runPolls issues each poll at its scheduled offset from start, each
// in its own goroutine so a slow reply delays no later poll. A poll is
// recorded in the window (of length win) it was due in.
func (g *gen) runPolls(polls []poll, start time.Time, win time.Duration, phaseOf func(window int) uint8, wg *sync.WaitGroup) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, p := range polls {
			due := start.Add(p.at)
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			wg.Add(1)
			go func(p poll) {
				defer wg.Done()
				k := int(p.at / win)
				p.rq.due, p.rq.phase, p.rq.window, p.rq.session = due, phaseOf(k), uint16(k), -1
				body, ok := g.c.do(p.rq)
				if ok && p.want != nil && !bytes.Equal(body, p.want) {
					g.c.mismatch.Add(1)
				}
			}(p)
		}
	}()
}

// dashboardPolls schedules experimenter polls of /results and
// /analytics, alternating, over every campaign.
func dashboardPolls(seed int64, rate float64, d time.Duration, camps []*campaignSeed) []poll {
	var out []poll
	for i, at := range poissonArrivals(seed, rate, d) {
		c := camps[i%len(camps)]
		route, path := uint8(rResults), "/api/v1/campaigns/"+c.id+"/results"
		if (i/len(camps))%2 == 1 {
			route, path = rAnalytics, "/api/v1/campaigns/"+c.id+"/analytics"
		}
		out = append(out, poll{at: at, rq: request{route: route, method: "GET", path: path, want: http.StatusOK}})
	}
	return out
}

// revalidations schedules the video revalidation mix: of every ten,
// five conditional GETs answered 304, three full GETs and two Range
// GETs answered 206.
func revalidations(seed int64, rate float64, d time.Duration, camps []*campaignSeed) []poll {
	r := rand.New(rand.NewSource(seed))
	var out []poll
	for i, at := range poissonArrivals(seed+1, rate, d) {
		c := camps[r.Intn(len(camps))]
		j := r.Intn(len(c.videoIDs))
		rq := request{route: rReval, method: "GET", path: "/api/v1/videos/" + c.videoIDs[j]}
		p := poll{at: at}
		switch m := i % 10; {
		case m < 5:
			rq.ifNoneMatch, rq.want = c.etags[j], http.StatusNotModified
		case m < 8:
			rq.want, p.want = http.StatusOK, c.payloads[j]
		default:
			size := len(c.payloads[j])
			lo := r.Intn(size / 2)
			hi := lo + r.Intn(size/2)
			rq.rangeHdr, rq.want = fmt.Sprintf("bytes=%d-%d", lo, hi), http.StatusPartialContent
			p.want = c.payloads[j][lo : hi+1]
		}
		p.rq = rq
		out = append(out, p)
	}
	return out
}
