package platform

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/eyeorg/eyeorg/internal/filtering"
	"github.com/eyeorg/eyeorg/internal/stats"
)

// completedRecords rebuilds a quiesced campaign's completed session
// records in completion order from its recordSessions.
func completedRecords(t *testing.T, s *Server, c *campaignState) []*filtering.SessionRecord {
	t.Helper()
	recs := make([]*filtering.SessionRecord, 0, len(c.recordSessions))
	for _, sid := range c.recordSessions {
		sess, ok := s.sessions.Get(sid)
		if !ok {
			t.Fatalf("campaign %s records unknown session %s", c.ID, sid)
		}
		recs = append(recs, sess.record())
	}
	return recs
}

// oracleResults is the offline batch view of /results, independent of
// the incremental fold the server renders from: filtering.Clean plus
// WisdomOfCrowd (timeline) or ABByVideo (A/B) over the rebuilt records,
// marshalled as the handler marshals. The served bytes must equal it.
func oracleResults(t *testing.T, s *Server, campaignID string) []byte {
	t.Helper()
	c, ok := s.campaigns.Get(campaignID)
	if !ok {
		t.Fatalf("campaign %s missing", campaignID)
	}
	outcome := filtering.Clean(completedRecords(t, s, c), 0)
	res := ResultsResponse{
		Campaign:     c.ID,
		Participants: outcome.Summary.Total,
		Kept:         outcome.Summary.Kept,
		Engagement:   outcome.Summary.Engagement(),
		Soft:         outcome.Summary.Soft,
		Control:      outcome.Summary.Control,
		PerVideo:     map[string]VideoAg{},
	}
	switch c.Kind {
	case "timeline":
		for id, vals := range filtering.WisdomOfCrowd(filtering.TimelineByVideo(outcome.Kept)) {
			res.PerVideo[id] = VideoAg{
				Responses: len(vals),
				MeanUPLT:  stats.Sample(vals).Mean(),
				Banned:    s.videoBanned(id),
			}
		}
	case "ab":
		for id, votes := range filtering.ABByVideo(outcome.Kept) {
			res.PerVideo[id] = VideoAg{
				Responses: votes.Total(),
				Agreement: votes.Agreement(),
				Banned:    s.videoBanned(id),
			}
		}
	}
	buf, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return append(buf, '\n')
}

// assertResultsMatchOracle fetches /results over HTTP and requires the
// exact bytes of the offline batch render.
func assertResultsMatchOracle(t *testing.T, s *Server, c *client, campaignID string) {
	t.Helper()
	got := rawResults(t, c, campaignID)
	if want := oracleResults(t, s, campaignID); !bytes.Equal(got, want) {
		t.Fatalf("/results diverged from the batch oracle:\nserved: %s\noracle: %s", got, want)
	}
}

// handlerCall sends one JSON request straight through h and decodes the
// reply into out, returning the status.
func handlerCall(tb testing.TB, h http.Handler, method, path string, body, out any) int {
	tb.Helper()
	var buf bytes.Buffer
	switch b := body.(type) {
	case nil:
	case []byte:
		buf.Write(b)
	default:
		if err := json.NewEncoder(&buf).Encode(b); err != nil {
			tb.Fatal(err)
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, &buf))
	if out != nil {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			tb.Fatalf("%s %s: %v", method, path, err)
		}
	}
	return rec.Code
}

// loadedResultsServer is an in-memory server holding one campaign of
// the given kind over videos videos with sessions completed sessions,
// driven in process. Submissions and votes vary per session, and every
// seventh participant fails the control, so the render has kept and
// dropped sessions and non-trivial bands.
func loadedResultsServer(tb testing.TB, kind string, videos, sessions int) (*Server, string) {
	tb.Helper()
	srv := NewServer()
	h := srv.Handler()
	var created CreateCampaignResponse
	if code := handlerCall(tb, h, "POST", "/api/v1/campaigns", CreateCampaignRequest{Name: "load", Kind: kind}, &created); code != http.StatusCreated {
		tb.Fatalf("create campaign: %d", code)
	}
	for i := 0; i < videos; i++ {
		if code := handlerCall(tb, h, "POST", "/api/v1/campaigns/"+created.ID+"/videos", sampleVideoBytes(), nil); code != http.StatusCreated {
			tb.Fatalf("add video: %d", code)
		}
	}
	choices := []string{"left", "right", "no difference"}
	for i := 0; i < sessions; i++ {
		var jr JoinResponse
		if code := handlerCall(tb, h, "POST", "/api/v1/sessions", JoinRequest{
			Campaign: created.ID,
			Worker:   Worker{ID: fmt.Sprintf("load-%d", i), Source: "load"},
			Captcha:  "tok",
		}, &jr); code != http.StatusCreated {
			tb.Fatalf("join: %d", code)
		}
		base := "/api/v1/sessions/" + jr.Session
		handlerCall(tb, h, "POST", base+"/events", EventBatch{InstructionMs: 20_000}, nil)
		failControl := i%7 == 6
		for k, tt := range jr.Tests {
			handlerCall(tb, h, "POST", base+"/events", EventBatch{
				VideoID: tt.VideoID, LoadMs: 900, TimeOnVideoMs: 12_000, Plays: 1, Seeks: 3, WatchedFraction: 0.9,
			}, nil)
			body := ResponseBody{TestID: tt.TestID}
			if kind == "ab" {
				body.Choice = choices[(i+k)%3]
				if tt.Control {
					body.Choice = "no difference"
					if failControl {
						body.Choice = "right"
					}
				}
			} else {
				sub := float64(800 + (i*131+k*57)%3000)
				body.SliderMs, body.HelperMs, body.SubmittedMs = sub+200, sub-100, sub
				body.KeptOriginal = !(tt.Control && failControl)
			}
			if code := handlerCall(tb, h, "POST", base+"/responses", body, nil); code != http.StatusAccepted {
				tb.Fatalf("response: %d", code)
			}
		}
	}
	return srv, created.ID
}

// TestRenderResultsAllocsFlatInSessions pins that a /results render
// reads the incremental fold instead of re-filtering every completed
// record: its allocations do not grow with the session count.
func TestRenderResultsAllocsFlatInSessions(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts through sync.Pool are not stable under -race")
	}
	for _, kind := range []string{"timeline", "ab"} {
		t.Run(kind, func(t *testing.T) {
			allocs := func(sessions int) float64 {
				srv, id := loadedResultsServer(t, kind, 8, sessions)
				csh := srv.campaigns.Shard(id)
				csh.Lock()
				defer csh.Unlock()
				c, _ := csh.Get(id)
				return testing.AllocsPerRun(20, func() {
					if _, err := srv.renderResults(c); err != nil {
						t.Fatal(err)
					}
				})
			}
			if a50, a500 := allocs(50), allocs(500); a50 != a500 {
				t.Fatalf("renderResults allocs: %v at 50 sessions, %v at 500", a50, a500)
			}
		})
	}
}

func BenchmarkRenderResults(b *testing.B) {
	for _, kind := range []string{"timeline", "ab"} {
		b.Run(kind, func(b *testing.B) {
			srv, id := loadedResultsServer(b, kind, 16, 500)
			csh := srv.campaigns.Shard(id)
			csh.Lock()
			defer csh.Unlock()
			c, _ := csh.Get(id)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := srv.renderResults(c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
