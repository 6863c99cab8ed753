// The incremental-equivalence property suite: the live quality
// analytics must equal filtering.Clean run offline over the same
// records, for any interleaving of events and responses, any worker
// count, and across a mid-campaign crash plus journal replay. This is
// the contract that makes serving verdicts live safe.
package platform

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"sync"
	"testing"

	"math/rand"

	"github.com/eyeorg/eyeorg/internal/filtering"
)

// assertLiveEqualsOffline compares a quiesced server's incremental
// analytics with the offline batch over the campaign's records: the
// summary histogram, the per-participant verdict map, and the per-video
// wisdom-of-the-crowd band (timeline) or vote tallies (A/B).
func assertLiveEqualsOffline(t *testing.T, s *Server, campaignID string) {
	t.Helper()
	c, ok := s.campaigns.Get(campaignID)
	if !ok {
		t.Fatalf("campaign %s missing", campaignID)
	}
	offline := filtering.Clean(completedRecords(t, s, c), 0)
	if got := c.analytics.Summary(); got != offline.Summary {
		t.Fatalf("summary diverged:\nlive:    %+v\noffline: %+v", got, offline.Summary)
	}
	if !reflect.DeepEqual(c.analytics.Reasons(), offline.ReasonFor) {
		t.Fatalf("verdicts diverged:\nlive:    %v\noffline: %v", c.analytics.Reasons(), offline.ReasonFor)
	}
	switch c.Kind {
	case "timeline":
		want := filtering.WisdomOfCrowd(filtering.TimelineByVideo(offline.Kept))
		got := c.analytics.TimelineFiltered(filtering.WisdomLo, filtering.WisdomHi)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("timeline bands diverged:\nlive:    %v\noffline: %v", got, want)
		}
	case "ab":
		want := filtering.ABByVideo(offline.Kept)
		if !reflect.DeepEqual(c.analytics.Votes(), want) {
			t.Fatalf("ab votes diverged:\nlive:    %v\noffline: %v", c.analytics.Votes(), want)
		}
	}
}

// rawAnalytics fetches the exact /analytics body bytes.
func rawAnalytics(t *testing.T, c *client, campaign string) []byte {
	t.Helper()
	resp, err := http.Get(c.srv.URL + "/api/v1/campaigns/" + campaign + "/analytics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analytics: %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// chaos drives randomized participant sessions against a server from
// plain goroutine-safe HTTP plumbing (the test client's helpers call
// t.Fatal, which is illegal off the test goroutine).
type chaos struct {
	base   string
	client *http.Client
}

func (d *chaos) do(method, path string, body, out any) (int, error) {
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			return 0, err
		}
	}
	req, err := http.NewRequest(method, d.base+path, &buf)
	if err != nil {
		return 0, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out != nil {
		return resp.StatusCode, json.NewDecoder(resp.Body).Decode(out)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, nil
}

func (d *chaos) expect(want int, method, path string, body, out any) error {
	code, err := d.do(method, path, body, out)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	if code != want {
		return fmt.Errorf("%s %s: status %d, want %d", method, path, code, want)
	}
	return nil
}

// driveSession runs one randomized participant through the lifecycle.
// Profiles are biased so every §4.3 rule fires across a run: diligent
// keepers, seek storms, long absences (excused and not), skipped videos,
// failed controls, abandoned sessions — plus invalid requests whose
// rejection statuses double as error-path coverage.
func (d *chaos) driveSession(r *rand.Rand, campaign, kind, worker string) error {
	var jr JoinResponse
	err := d.expect(http.StatusCreated, "POST", "/api/v1/sessions", JoinRequest{
		Campaign: campaign,
		Worker:   Worker{ID: worker, Gender: "f", Country: "IT", Source: "chaos"},
		Captcha:  "tok",
	}, &jr)
	if err != nil {
		return err
	}
	profile := r.Intn(8)
	answerUpTo := len(jr.Tests)
	if profile == 7 { // abandoned mid-session
		answerUpTo = r.Intn(len(jr.Tests))
	}
	skipIdx := -1
	if profile == 4 { // soft rule: one video never inspected
		skipIdx = r.Intn(len(jr.Tests))
	}
	events := "/api/v1/sessions/" + jr.Session + "/events"
	responses := "/api/v1/sessions/" + jr.Session + "/responses"
	if err := d.expect(http.StatusAccepted, "POST", events, EventBatch{InstructionMs: 10_000 + r.Float64()*30_000}, nil); err != nil {
		return err
	}
	for i, tt := range jr.Tests {
		if i != skipIdx {
			for n := 1 + r.Intn(2); n > 0; n-- { // replacement batches included
				if err := d.expect(http.StatusAccepted, "POST", events, d.batch(r, profile, tt.VideoID), nil); err != nil {
					return err
				}
			}
		}
		if r.Intn(16) == 0 { // instrumentation for a video never assigned
			if err := d.expect(http.StatusAccepted, "POST", events, d.batch(r, 0, "ghost-video"), nil); err != nil {
				return err
			}
		}
		if i >= answerUpTo {
			continue
		}
		if err := d.expect(http.StatusAccepted, "POST", responses, d.response(r, kind, profile, tt), nil); err != nil {
			return err
		}
		if r.Intn(8) == 0 { // duplicate answer must 409
			if err := d.expect(http.StatusConflict, "POST", responses, d.response(r, kind, profile, tt), nil); err != nil {
				return err
			}
		}
	}
	if answerUpTo == len(jr.Tests) && r.Intn(4) == 0 {
		// The session is complete: late instrumentation must 409 and the
		// materialized record must not change.
		if err := d.expect(http.StatusConflict, "POST", events, d.batch(r, 1, jr.Tests[0].VideoID), nil); err != nil {
			return err
		}
	}
	if r.Intn(8) == 0 { // unknown test must 400
		if err := d.expect(http.StatusBadRequest, "POST", responses, ResponseBody{TestID: "nope", SubmittedMs: 1, Choice: "left"}, nil); err != nil {
			return err
		}
	}
	return nil
}

func (d *chaos) batch(r *rand.Rand, profile int, videoID string) EventBatch {
	b := EventBatch{
		VideoID:         videoID,
		LoadMs:          500 + r.Float64()*1500,
		TimeOnVideoMs:   5_000 + r.Float64()*20_000,
		Plays:           1,
		Seeks:           r.Intn(15),
		Pauses:          r.Intn(3),
		WatchedFraction: 0.5 + r.Float64()*0.5,
	}
	switch profile {
	case 1: // seek storm: > SeekFactor*TrustedMaxSeeks across the session
		b.Seeks = 100 + r.Intn(300)
	case 2: // long unexcused absence
		b.OutOfFocusMs = 12_000 + r.Float64()*30_000
	case 3: // long absence excused by a slower delivery
		b.OutOfFocusMs = 12_000 + r.Float64()*10_000
		b.LoadMs = b.OutOfFocusMs + 1_000 + r.Float64()*5_000
	}
	return b
}

func (d *chaos) response(r *rand.Rand, kind string, profile int, tt AssignedTest) ResponseBody {
	if kind == "ab" {
		choice := []string{"left", "right", "no difference"}[r.Intn(3)]
		if tt.Control {
			choice = "no difference"
			if profile == 5 { // failed control: picked the delayed side
				choice = "right"
			}
		}
		return ResponseBody{TestID: tt.TestID, Choice: choice}
	}
	sub := 800 + r.Float64()*4_000
	return ResponseBody{
		TestID:       tt.TestID,
		SliderMs:     sub + 200,
		HelperMs:     sub - 100,
		SubmittedMs:  sub,
		KeptOriginal: !(tt.Control && profile == 5), // 5 = blind accepter
	}
}

// runChaos fans sessions out over workers goroutines, each with its own
// deterministic RNG, and fails the test on any unexpected status.
func runChaos(t *testing.T, base, campaign, kind string, seed int64, workers, sessionsPerWorker int) {
	t.Helper()
	d := &chaos{base: base, client: &http.Client{}}
	errs := make(chan error, workers*sessionsPerWorker)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed*1000 + int64(w)))
			for i := 0; i < sessionsPerWorker; i++ {
				worker := fmt.Sprintf("%s-seed%d-w%d-s%d", kind, seed, w, i)
				if err := d.driveSession(r, campaign, kind, worker); err != nil {
					errs <- err
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// crossCheckHTTP verifies the rendered /analytics payload against the
// offline batch: summary, per-session verdict strings, and band counts.
func crossCheckHTTP(t *testing.T, s *Server, c *client, campaignID string) {
	t.Helper()
	var ar AnalyticsResponse
	if err := json.Unmarshal(rawAnalytics(t, c, campaignID), &ar); err != nil {
		t.Fatal(err)
	}
	cs, _ := s.campaigns.Get(campaignID)
	offline := filtering.Clean(completedRecords(t, s, cs), 0)
	want := AnalyticsSummary{
		Total:           offline.Summary.Total,
		Kept:            offline.Summary.Kept,
		EngagementSeeks: offline.Summary.EngagementSeeks,
		EngagementFocus: offline.Summary.EngagementFocus,
		Soft:            offline.Summary.Soft,
		Control:         offline.Summary.Control,
	}
	if ar.Summary != want {
		t.Fatalf("rendered summary %+v, want %+v", ar.Summary, want)
	}
	if ar.Completed != offline.Summary.Total {
		t.Fatalf("completed = %d, want %d", ar.Completed, offline.Summary.Total)
	}
	if ar.Sessions < ar.Completed || len(ar.Participants) != ar.Sessions {
		t.Fatalf("session counts inconsistent: sessions=%d completed=%d participants=%d",
			ar.Sessions, ar.Completed, len(ar.Participants))
	}
	completed := 0
	for _, pv := range ar.Participants {
		if !pv.Completed {
			if !pv.Provisional {
				t.Fatalf("in-flight session %s not marked provisional", pv.Session)
			}
			continue
		}
		completed++
		// Workers are unique per session in these runs, so the offline
		// reason map is directly addressable.
		wantReason, ok := offline.ReasonFor[pv.Worker]
		if !ok {
			t.Fatalf("completed session %s (worker %s) missing from offline reasons", pv.Session, pv.Worker)
		}
		if pv.Verdict != wantReason.String() {
			t.Fatalf("session %s verdict %q, offline %q", pv.Session, pv.Verdict, wantReason)
		}
	}
	if completed != ar.Completed {
		t.Fatalf("participants list has %d completed, header says %d", completed, ar.Completed)
	}
	if cs.Kind == "timeline" {
		bands := filtering.WisdomOfCrowd(filtering.TimelineByVideo(offline.Kept))
		if len(ar.PerVideo) != len(bands) {
			t.Fatalf("per_video has %d entries, offline %d", len(ar.PerVideo), len(bands))
		}
		for id, vals := range bands {
			va, ok := ar.PerVideo[id]
			if !ok {
				t.Fatalf("video %s missing from analytics", id)
			}
			if va.InBand != len(vals) {
				t.Fatalf("video %s in_band = %d, offline %d", id, va.InBand, len(vals))
			}
		}
	}
}

// TestPropertyAnalyticsEquivalence is the acceptance property: across
// randomized schedules, seeds and worker counts, live verdicts equal the
// offline batch, and the /results bytes rendered from the live fold
// equal the batch render's. Run with -race in CI.
func TestPropertyAnalyticsEquivalence(t *testing.T) {
	for _, kind := range []string{"timeline", "ab"} {
		for _, workers := range []int{1, 8} {
			for seed := int64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("%s/workers=%d/seed=%d", kind, workers, seed), func(t *testing.T) {
					srv := NewServer()
					c := newClientFor(t, srv)
					campaign, _ := setupCampaign(c, kind, 3)
					runChaos(t, c.srv.URL, campaign, kind, seed, workers, 6)
					assertLiveEqualsOffline(t, srv, campaign)
					crossCheckHTTP(t, srv, c, campaign)
					assertResultsMatchOracle(t, srv, c, campaign)
				})
			}
		}
	}
}

// TestAnalyticsCrashReplayEquivalence crashes a persisted server mid-
// campaign — completed sessions, in-flight sessions, everything — and
// requires the replayed analytics and /results to be byte-identical,
// the equivalence (and the /results batch oracle) to hold, and a
// pre-crash in-flight session to complete correctly afterwards.
func TestAnalyticsCrashReplayEquivalence(t *testing.T) {
	for _, opts := range []Options{
		{}, // pure journal replay
		{SnapshotEvery: 8, SegmentBytes: 4 << 10}, // snapshot + tail
	} {
		t.Run(fmt.Sprintf("snapshotEvery=%d", opts.SnapshotEvery), func(t *testing.T) {
			dir := t.TempDir()
			srv, c := openPersisted(t, dir, opts)
			campaign, _ := setupCampaign(c, "timeline", 3)
			runChaos(t, c.srv.URL, campaign, "timeline", 42, 4, 4)
			// One known in-flight session to resume after the crash.
			half := join(c, campaign, "crash-survivor")
			c.do("POST", "/api/v1/sessions/"+half.Session+"/events", EventBatch{InstructionMs: 20_000}, nil)
			for _, tt := range half.Tests[:3] {
				c.do("POST", "/api/v1/sessions/"+half.Session+"/events", EventBatch{
					VideoID: tt.VideoID, LoadMs: 800, TimeOnVideoMs: 9_000, Plays: 1, Seeks: 4, WatchedFraction: 0.8,
				}, nil)
				c.do("POST", "/api/v1/sessions/"+half.Session+"/responses", ResponseBody{
					TestID: tt.TestID, SliderMs: 1_500, SubmittedMs: 1_400, KeptOriginal: true,
				}, nil)
			}
			assertLiveEqualsOffline(t, srv, campaign)
			assertResultsMatchOracle(t, srv, c, campaign)
			before := rawAnalytics(t, c, campaign)
			beforeResults := rawResults(t, c, campaign)
			// Crash: abandon the server without Close. Every journal
			// append was flushed, so recovery sees the full history.
			c.srv.Close()

			srv2, c2 := openPersisted(t, dir, opts)
			defer srv2.Close()
			after := rawAnalytics(t, c2, campaign)
			if !bytes.Equal(before, after) {
				t.Fatalf("analytics diverged after replay:\n before: %s\n after:  %s", before, after)
			}
			if afterResults := rawResults(t, c2, campaign); !bytes.Equal(beforeResults, afterResults) {
				t.Fatalf("/results diverged after replay:\n before: %s\n after:  %s", beforeResults, afterResults)
			}
			assertLiveEqualsOffline(t, srv2, campaign)
			assertResultsMatchOracle(t, srv2, c2, campaign)

			// The pre-crash in-flight session completes post-replay and
			// lands in the analytics like any other.
			for _, tt := range half.Tests[3:] {
				c2.do("POST", "/api/v1/sessions/"+half.Session+"/events", EventBatch{
					VideoID: tt.VideoID, LoadMs: 800, TimeOnVideoMs: 9_000, Plays: 1, Seeks: 4, WatchedFraction: 0.8,
				}, nil)
				if code := c2.do("POST", "/api/v1/sessions/"+half.Session+"/responses", ResponseBody{
					TestID: tt.TestID, SliderMs: 1_500, SubmittedMs: 1_400, KeptOriginal: true,
				}, nil); code != http.StatusAccepted {
					t.Fatalf("post-replay response: %d", code)
				}
			}
			runChaos(t, c2.srv.URL, campaign, "timeline", 43, 4, 2)
			assertLiveEqualsOffline(t, srv2, campaign)
			crossCheckHTTP(t, srv2, c2, campaign)
			assertResultsMatchOracle(t, srv2, c2, campaign)
			cs, _ := srv2.campaigns.Get(campaign)
			if r, ok := cs.analytics.Reasons()["crash-survivor"]; !ok || r != filtering.Kept {
				t.Fatalf("crash-survivor verdict = %v (present %v), want kept", r, ok)
			}
		})
	}
}

// TestAnalyticsScriptedVerdicts pins the endpoint's semantics with one
// participant per rule plus an in-flight provisional session.
func TestAnalyticsScriptedVerdicts(t *testing.T) {
	c := newClient(t)
	campaign, _ := setupCampaign(c, "timeline", 2)
	profiles := []struct {
		worker  string
		seeks   int
		focusMs float64
		kept    bool // keptOriginal on the control
		verdict string
	}{
		{"p-kept", 10, 0, true, "kept"},
		{"p-seeks", 100, 0, true, "engagement-seeks"},
		{"p-focus", 10, 45_000, true, "engagement-focus"},
		{"p-control", 10, 0, false, "control"},
	}
	for _, p := range profiles {
		jr := join(c, campaign, p.worker)
		completeSession(c, jr, 1_500, p.kept, p.seeks, p.focusMs)
	}
	inflight := join(c, campaign, "p-inflight")
	c.do("POST", "/api/v1/sessions/"+inflight.Session+"/events", EventBatch{InstructionMs: 9_000}, nil)

	var ar AnalyticsResponse
	if code := c.do("GET", "/api/v1/campaigns/"+campaign+"/analytics", nil, &ar); code != http.StatusOK {
		t.Fatalf("analytics: %d", code)
	}
	if ar.Sessions != 5 || ar.Completed != 4 {
		t.Fatalf("sessions=%d completed=%d, want 5/4", ar.Sessions, ar.Completed)
	}
	want := AnalyticsSummary{Total: 4, Kept: 1, EngagementSeeks: 1, EngagementFocus: 1, Control: 1}
	if ar.Summary != want {
		t.Fatalf("summary %+v, want %+v", ar.Summary, want)
	}
	byWorker := map[string]ParticipantVerdict{}
	for _, pv := range ar.Participants {
		byWorker[pv.Worker] = pv
	}
	for _, p := range profiles {
		pv := byWorker[p.worker]
		if pv.Verdict != p.verdict || !pv.Completed || pv.Provisional {
			t.Fatalf("%s: got %+v, want verdict %q", p.worker, pv, p.verdict)
		}
	}
	if pv := byWorker["p-inflight"]; pv.Completed || !pv.Provisional || pv.Verdict != "soft" {
		t.Fatalf("in-flight session: %+v, want provisional soft", pv)
	}
	for id, va := range ar.PerVideo {
		if va.Responses == 0 || va.InBand == 0 || va.BandHiS < va.BandLoS || va.MeanUPLTS <= 0 {
			t.Fatalf("video %s band malformed: %+v", id, va)
		}
	}
	if code := c.do("GET", "/api/v1/campaigns/ghost/analytics", nil, nil); code != http.StatusNotFound {
		t.Fatalf("ghost campaign analytics: %d", code)
	}
}
