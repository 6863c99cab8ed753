package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"github.com/eyeorg/eyeorg/internal/crowd"
	"github.com/eyeorg/eyeorg/internal/metrics"
	"github.com/eyeorg/eyeorg/internal/platform"
	"github.com/eyeorg/eyeorg/internal/rng"
	"github.com/eyeorg/eyeorg/internal/sitegen"
	"github.com/eyeorg/eyeorg/internal/survey"
	"github.com/eyeorg/eyeorg/internal/video"
	"github.com/eyeorg/eyeorg/internal/webpeg"
	"github.com/eyeorg/eyeorg/internal/wire"
)

// Every byte the platform receives during a run is generated here,
// before any clock starts: video payloads, per-persona answers (JSON
// event bodies, response bodies, EYB1 batches), join bodies and the
// open-loop arrival schedules. The only runtime splicing is of IDs the
// server mints (session and test IDs), which cannot be known earlier.

// corpusSeed fixes each workload's campaign videos: the experimenter's
// campaign is part of the workload, while --seed draws the crowd (the
// personas' answers) and its arrival times. With it, four videos come
// to about 56 KB.
const corpusSeed = 1

// capturePayloads builds n EYV1 video payloads from a synthetic site
// corpus captured with webpeg.
func capturePayloads(seed int64, n int) ([][]byte, error) {
	pages := sitegen.Generate(sitegen.Config{Seed: seed, Sites: n, AdShare: 0.5, ComplexityScale: 1})
	out := make([][]byte, 0, n)
	for _, page := range pages {
		c, err := webpeg.CaptureSite(page, webpeg.Config{Seed: seed, Loads: 3})
		if err != nil {
			return nil, fmt.Errorf("capturing %s: %w", page.URL, err)
		}
		out = append(out, video.Encode(c.Video))
	}
	return out, nil
}

// answer is one persona's pre-generated reply to one (video, control)
// test: the engagement it reports and the answer it submits.
type answer struct {
	batch    platform.EventBatch
	resp     platform.ResponseBody
	events   []byte // JSON events body
	respPre  []byte // JSON response body up to the test ID
	respPost []byte // JSON response body after the test ID
	record   wire.Record
}

// persona is one scripted participant: demographics plus an answer per
// (campaign video, control flag).
type persona struct {
	gender, country string
	instructionMs   float64
	instrEvents     []byte // JSON instruction-time events body
	// answers[campaign][video][control]
	answers [][][2]*answer
}

// campaignSeed describes one seeded campaign as the generator sees it.
type campaignSeed struct {
	id       string
	videoIDs []string
	payloads [][]byte
	etags    []string
	// byID maps a server video ID to its index in videoIDs.
	byID map[string]int
	// classes holds the round-robin assignments a fixed (non-adaptive)
	// campaign can hand out, as video indices with the control last;
	// binary sessions whose assignment matches one use a pre-encoded
	// batch.
	classes [][]int
}

// scripts is the whole generated input of one run.
type scripts struct {
	personas []*persona
	// batches[persona][campaign][class] are pre-encoded EYB1 bodies.
	batches [][][][]byte
	joins   [][]byte // join bodies, one per session index
	workers []string // worker ID per session index
	joinCID []int    // campaign index per session index
	digest  string
}

const testIDMark = "\x00TEST\x00"

// buildScripts generates every persona answer for the seeded campaigns.
func buildScripts(seed int64, w *workload, camps []*campaignSeed, nPersonas, nJoins int) (*scripts, error) {
	pop := crowd.NewPopulation(rng.New(seed), crowd.PopulationConfig{Class: crowd.Paid, N: nPersonas})
	gapRand := rand.New(rand.NewSource(seed ^ 0x5eed))
	decs := make([][]decodedVideo, len(camps))
	for ci, c := range camps {
		decs[ci] = make([]decodedVideo, len(c.payloads))
		for j, p := range c.payloads {
			v, err := video.Decode(p)
			if err != nil {
				return nil, fmt.Errorf("decoding payload %d: %w", j, err)
			}
			// A/B campaigns compare two protocol variants of one site.
			decs[ci][j] = decodedVideo{v: v, curves: metrics.Curves(v, nil), gapMs: (gapRand.Float64() - 0.5) * 1600}
		}
	}
	sc := &scripts{personas: make([]*persona, nPersonas)}
	// Personas own private RNG state, so they generate in parallel.
	var wg sync.WaitGroup
	var firstErr error
	var errMu sync.Mutex
	workers := 2
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			for i := wk; i < nPersonas; i += workers {
				p, err := makePersona(pop[i], w, camps, decs)
				if err != nil {
					errMu.Lock()
					firstErr = err
					errMu.Unlock()
					return
				}
				sc.personas[i] = p
			}
		}(wk)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if w.binary {
		sc.batches = make([][][][]byte, nPersonas)
		for i, p := range sc.personas {
			sc.batches[i] = make([][][]byte, len(camps))
			for ci, c := range camps {
				for _, cls := range c.classes {
					sc.batches[i][ci] = append(sc.batches[i][ci], p.encodeBatch(ci, cls))
				}
			}
		}
	}
	sc.joins = make([][]byte, nJoins)
	sc.workers = make([]string, nJoins)
	sc.joinCID = make([]int, nJoins)
	for n := range sc.joins {
		ci := n % len(camps)
		p := sc.personas[n%nPersonas]
		sc.joinCID[n] = ci
		sc.workers[n] = fmt.Sprintf("cb-%d-%d", seed, n)
		sc.joins[n] = []byte(fmt.Sprintf(
			`{"campaign":%q,"worker":{"id":%q,"gender":%q,"country":%q,"source":"crowdbench"},"captcha":"crowdbench"}`,
			camps[ci].id, sc.workers[n], p.gender, p.country))
	}
	sc.digest = sc.hash(camps)
	return sc, nil
}

// decodedVideo is a payload as a persona perceives it.
type decodedVideo struct {
	v      *video.Video
	curves metrics.PerceptualCurves
	gapMs  float64 // A/B only: variant A's extra load time
}

func makePersona(p *crowd.Participant, w *workload, camps []*campaignSeed, decs [][]decodedVideo) (*persona, error) {
	ps := &persona{gender: p.Gender, country: p.Country, instructionMs: ms(p.InstructionTime())}
	var err error
	if ps.instrEvents, err = json.Marshal(platform.EventBatch{InstructionMs: ps.instructionMs}); err != nil {
		return nil, err
	}
	ps.answers = make([][][2]*answer, len(camps))
	for ci, c := range camps {
		ps.answers[ci] = make([][2]*answer, len(c.videoIDs))
		for j, vid := range c.videoIDs {
			d := decs[ci][j]
			for ctl := 0; ctl < 2; ctl++ {
				var a *answer
				if w.kind == "ab" {
					a = abAnswer(p, vid, d.v, d.gapMs, ctl == 1)
				} else {
					a = timelineAnswer(p, vid, d.v, d.curves, ctl == 1)
				}
				if err := a.encode(); err != nil {
					return nil, err
				}
				ps.answers[ci][j][ctl] = a
			}
		}
	}
	return ps, nil
}

func timelineAnswer(p *crowd.Participant, vid string, v *video.Video, curves metrics.PerceptualCurves, control bool) *answer {
	ans := p.AnswerTimeline(&survey.TimelineTest{VideoID: vid, Video: v, Control: control}, curves)
	tr := ans.Trace
	return &answer{
		batch: platform.EventBatch{
			VideoID: vid, LoadMs: ms(tr.LoadTime), TimeOnVideoMs: ms(tr.TimeOnVideo),
			Plays: tr.Plays, Pauses: tr.Pauses, Seeks: tr.Seeks,
			WatchedFraction: tr.WatchedFraction, OutOfFocusMs: ms(tr.OutOfFocus),
		},
		resp: platform.ResponseBody{
			TestID: testIDMark, SliderMs: ms(ans.Slider), HelperMs: ms(ans.Helper),
			SubmittedMs: ms(ans.Submitted), AcceptedHelper: ans.AcceptedHelper,
			KeptOriginal: !ans.AcceptedHelper,
		},
	}
}

// abAnswer answers an A/B test as the platform presents it: variant A
// on the left, and on controls the right side delayed.
func abAnswer(p *crowd.Participant, vid string, v *video.Video, gapMs float64, control bool) *answer {
	test := &survey.ABTest{VideoID: vid, Spliced: v, AOnLeft: true, Control: control}
	if control {
		test.DelayedSide = survey.ChoiceRight
	}
	ans := p.AnswerAB(test, time.Duration(gapMs*float64(time.Millisecond)))
	tr := ans.Trace
	return &answer{
		batch: platform.EventBatch{
			VideoID: vid, LoadMs: ms(tr.LoadTime), TimeOnVideoMs: ms(tr.TimeOnVideo),
			Plays: tr.Plays, Pauses: tr.Pauses, Seeks: tr.Seeks,
			WatchedFraction: tr.WatchedFraction, OutOfFocusMs: ms(tr.OutOfFocus),
		},
		resp: platform.ResponseBody{TestID: testIDMark, Choice: ans.Choice.String()},
	}
}

func (a *answer) encode() error {
	var err error
	if a.events, err = json.Marshal(a.batch); err != nil {
		return err
	}
	body, err := json.Marshal(a.resp)
	if err != nil {
		return err
	}
	mark, _ := json.Marshal(testIDMark)
	mark = mark[1 : len(mark)-1]
	i := bytes.Index(body, mark)
	if i < 0 {
		return fmt.Errorf("response template lost its test-ID mark")
	}
	a.respPre, a.respPost = body[:i], body[i+len(mark):]
	recs := platform.AppendWireRecords(nil, a.batch)
	a.record = recs[len(recs)-1]
	return nil
}

// responseBody splices a server-minted test ID into the template.
func (a *answer) responseBody(testID string) []byte {
	b := make([]byte, 0, len(a.respPre)+len(testID)+len(a.respPost))
	b = append(b, a.respPre...)
	b = append(b, testID...)
	return append(b, a.respPost...)
}

// encodeBatch renders one session's whole EYB1 batch for an assignment
// given as video indices with the control last: the instruction record
// followed by one engagement record per test, in test order.
func (ps *persona) encodeBatch(ci int, assignment []int) []byte {
	recs := platform.AppendWireRecords(nil, platform.EventBatch{InstructionMs: ps.instructionMs})
	for k, j := range assignment {
		ctl := 0
		if k == len(assignment)-1 {
			ctl = 1
		}
		recs = append(recs, ps.answers[ci][j][ctl].record)
	}
	return wire.AppendBatch(nil, recs)
}

// roundRobinClasses lists the assignments a fixed campaign with n live
// videos hands out: join number o gets videos (6o+k) mod n for k < 6
// and control o mod n, so o mod n determines the class.
func roundRobinClasses(n int) [][]int {
	regular := platform.TestsPerSession - 1
	out := make([][]int, n)
	for o := 0; o < n; o++ {
		cls := make([]int, 0, regular+1)
		for k := 0; k < regular; k++ {
			cls = append(cls, (o*regular+k)%n)
		}
		out[o] = append(cls, o%n)
	}
	return out
}

// hash digests every generated byte, so two runs can be shown to have
// fed the platform identical inputs.
func (sc *scripts) hash(camps []*campaignSeed) string {
	h := sha256.New()
	var n [8]byte
	put := func(b []byte) {
		binary.LittleEndian.PutUint64(n[:], uint64(len(b)))
		h.Write(n[:])
		h.Write(b)
	}
	for _, c := range camps {
		for _, p := range c.payloads {
			put(p)
		}
	}
	for i, p := range sc.personas {
		put(p.instrEvents)
		for _, perCamp := range p.answers {
			for _, perVideo := range perCamp {
				for _, a := range perVideo {
					put(a.events)
					put(a.respPre)
					put(a.respPost)
				}
			}
		}
		if sc.batches != nil {
			for _, perCamp := range sc.batches[i] {
				for _, b := range perCamp {
					put(b)
				}
			}
		}
	}
	for _, j := range sc.joins {
		put(j)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// poissonArrivals returns offsets of a seeded Poisson process at rate
// per second over d.
func poissonArrivals(seed int64, rate float64, d time.Duration) []time.Duration {
	r := rand.New(rand.NewSource(seed))
	var out []time.Duration
	t := 0.0
	for {
		t += r.ExpFloat64() / rate
		off := time.Duration(t * float64(time.Second))
		if off >= d {
			return out
		}
		out = append(out, off)
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// hashArrivals folds a schedule into the input digest.
func hashArrivals(digest string, scheds ...[]time.Duration) string {
	h := sha256.New()
	h.Write([]byte(digest))
	var b [8]byte
	for _, s := range scheds {
		for _, t := range s {
			binary.LittleEndian.PutUint64(b[:], uint64(t))
			h.Write(b[:])
		}
		h.Write([]byte{0xff})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
