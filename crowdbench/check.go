package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"time"

	"github.com/eyeorg/eyeorg/internal/crowd"
	"github.com/eyeorg/eyeorg/internal/filtering"
	"github.com/eyeorg/eyeorg/internal/platform"
	"github.com/eyeorg/eyeorg/internal/stats"
	"github.com/eyeorg/eyeorg/internal/survey"
)

// The output check rebuilds, from the generated scripts alone, what
// every acknowledged session told the platform, runs the paper's §4.3
// filter over it, and requires /results to agree: participants equal
// the fully acknowledged sessions, every filter count matches, and each
// video's response count matches.

func dur(msv float64) time.Duration { return time.Duration(msv * float64(time.Millisecond)) }

// record rebuilds the filtering record of one acknowledged session.
func (g *gen) record(s ackedSession) *filtering.SessionRecord {
	p := g.sc.personas[s.persona]
	camp := g.camps[s.campaign]
	ans := func(k int) *answer {
		c := 0
		if s.control[k] {
			c = 1
		}
		return p.answers[s.campaign][s.videos[k]][c]
	}
	// A later report for the same video replaces an earlier one.
	traces := map[string]survey.VideoTrace{}
	for k := range s.videos {
		b := ans(k).batch
		traces[b.VideoID] = survey.VideoTrace{
			VideoID: b.VideoID, LoadTime: dur(b.LoadMs), TimeOnVideo: dur(b.TimeOnVideoMs),
			Plays: b.Plays, Pauses: b.Pauses, Seeks: b.Seeks,
			WatchedFraction: b.WatchedFraction, OutOfFocus: dur(b.OutOfFocusMs),
		}
	}
	rec := &filtering.SessionRecord{
		Participant: &crowd.Participant{ID: s.worker},
		Trace:       &survey.SessionTrace{InstructionTime: dur(p.instructionMs)},
	}
	for k, j := range s.videos {
		vid := camp.videoIDs[j]
		rec.Trace.Videos = append(rec.Trace.Videos, traces[vid])
		a := ans(k)
		if g.w.kind == "ab" {
			choice := map[string]survey.ABChoice{"left": survey.ChoiceLeft, "right": survey.ChoiceRight}[a.resp.Choice]
			if a.resp.Choice == "no difference" {
				choice = survey.ChoiceNoDifference
			}
			rec.AB = append(rec.AB, &survey.ABResponse{
				VideoID: vid, Choice: choice, AOnLeft: true, Control: s.control[k],
				ControlPassed: !s.control[k] || choice != survey.ChoiceRight,
			})
		} else {
			rec.Timeline = append(rec.Timeline, &survey.TimelineResponse{
				VideoID: vid, Submitted: dur(a.resp.SubmittedMs), Control: s.control[k],
				ControlPassed: !s.control[k] || a.resp.KeptOriginal,
			})
		}
	}
	return rec
}

// expectedResults is the oracle's view of one campaign's /results.
func (g *gen) expectedResults(ci int) platform.ResultsResponse {
	var recs []*filtering.SessionRecord
	for _, s := range g.acked {
		if s.campaign == ci {
			recs = append(recs, g.record(s))
		}
	}
	out := filtering.Clean(recs, 0)
	res := platform.ResultsResponse{
		Campaign: g.camps[ci].id, Participants: out.Summary.Total, Kept: out.Summary.Kept,
		Engagement: out.Summary.Engagement(), Soft: out.Summary.Soft, Control: out.Summary.Control,
		PerVideo: map[string]platform.VideoAg{},
	}
	if g.w.kind == "ab" {
		for id, v := range filtering.ABByVideo(out.Kept) {
			res.PerVideo[id] = platform.VideoAg{Responses: v.Total(), Agreement: v.Agreement()}
		}
	} else {
		for id, vals := range filtering.WisdomOfCrowd(filtering.TimelineByVideo(out.Kept)) {
			res.PerVideo[id] = platform.VideoAg{Responses: len(vals), MeanUPLT: stats.Sample(vals).Mean()}
		}
	}
	return res
}

// checkResults fetches every campaign's /results and compares it with
// the oracle. It returns the raw bodies for the restart check.
func (g *gen) checkResults(hc *http.Client, front string) ([][]byte, []string) {
	var bodies [][]byte
	var problems []string
	for ci, c := range g.camps {
		body, status, err := get(hc, front+"/api/v1/campaigns/"+c.id+"/results")
		if err != nil || status != http.StatusOK {
			problems = append(problems, fmt.Sprintf("results %s: status %d err %v", c.id, status, err))
			bodies = append(bodies, nil)
			continue
		}
		bodies = append(bodies, body)
		var got platform.ResultsResponse
		if err := json.Unmarshal(body, &got); err != nil {
			problems = append(problems, fmt.Sprintf("results %s: %v", c.id, err))
			continue
		}
		want := g.expectedResults(ci)
		if got.Participants != want.Participants || got.Kept != want.Kept || got.Engagement != want.Engagement ||
			got.Soft != want.Soft || got.Control != want.Control {
			problems = append(problems, fmt.Sprintf("results %s: participants/kept/engagement/soft/control = %d/%d/%d/%d/%d, acknowledged sessions give %d/%d/%d/%d/%d",
				c.id, got.Participants, got.Kept, got.Engagement, got.Soft, got.Control,
				want.Participants, want.Kept, want.Engagement, want.Soft, want.Control))
		}
		gotSum, wantSum := 0, 0
		for _, id := range unionKeys(got.PerVideo, want.PerVideo) {
			gv, gok := got.PerVideo[id]
			wv, wok := want.PerVideo[id]
			gotSum += gv.Responses
			wantSum += wv.Responses
			if !gok || !wok || gv.Responses != wv.Responses || !approxEqual(gv.MeanUPLT, wv.MeanUPLT) || !approxEqual(gv.Agreement, wv.Agreement) {
				problems = append(problems, fmt.Sprintf("results %s video %s: %+v, acknowledged responses give %+v", c.id, id, gv, wv))
			}
		}
		if gotSum != wantSum {
			problems = append(problems, fmt.Sprintf("results %s: per-video responses sum to %d, acknowledged responses give %d", c.id, gotSum, wantSum))
		}
	}
	return bodies, problems
}

func unionKeys(a, b map[string]platform.VideoAg) []string {
	seen := map[string]bool{}
	var out []string
	for _, m := range []map[string]platform.VideoAg{a, b} {
		for k := range m {
			if !seen[k] {
				seen[k] = true
				out = append(out, k)
			}
		}
	}
	sort.Strings(out)
	return out
}

// approxEqual compares aggregates that the server and the oracle may
// sum in different orders.
func approxEqual(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func get(hc *http.Client, url string) ([]byte, int, error) {
	resp, err := hc.Get(url)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return b, resp.StatusCode, err
}

// recover kills the server owning the first campaign with SIGKILL,
// restarts it over the same data dir, and returns the time until the
// front end serves that campaign's /results again: byte-identical to
// want for a durable workload, or answering at all for an in-memory
// one (which has nothing to recover).
func recoverOnce(d *deployment, w *workload, hc *http.Client, want []byte) (time.Duration, error) {
	s := d.servers[d.owner[0]]
	url := d.front + "/api/v1/campaigns/" + d.camps[0].id + "/results"
	if !w.durable {
		url = s.base + "/metrics"
	}
	start := time.Now()
	s.kill()
	hc.Transport.(*http.Transport).CloseIdleConnections()
	if err := s.start(); err != nil {
		return 0, err
	}
	deadline := start.Add(60 * time.Second)
	for {
		body, status, err := get(hc, url)
		if err == nil && status == http.StatusOK && (!w.durable || bytes.Equal(body, want)) {
			return time.Since(start), nil
		}
		if time.Now().After(deadline) {
			if err == nil && status == http.StatusOK {
				return 0, fmt.Errorf("after restart /results differs from before the kill:\nbefore %.300s\nafter  %.300s", want, body)
			}
			return 0, fmt.Errorf("server not serving 60s after restart: status %d err %v", status, err)
		}
		time.Sleep(500 * time.Microsecond)
	}
}
