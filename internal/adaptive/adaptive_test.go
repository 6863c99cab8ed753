package adaptive

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"github.com/eyeorg/eyeorg/internal/crowd"
	"github.com/eyeorg/eyeorg/internal/filtering"
	"github.com/eyeorg/eyeorg/internal/survey"
)

func timelineRecord(id string, videos []string, submitted []time.Duration, control int) *filtering.SessionRecord {
	rec := &filtering.SessionRecord{Participant: &crowd.Participant{ID: id}}
	for i, v := range videos {
		rec.Timeline = append(rec.Timeline, &survey.TimelineResponse{
			VideoID:       v,
			Submitted:     submitted[i],
			Control:       i == control,
			ControlPassed: true,
		})
	}
	return rec
}

func TestNormalIntervalMatchesFormula(t *testing.T) {
	e := &Estimator{}
	vals := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	var sum, sumsq float64
	for _, v := range vals {
		e.Add(v)
		sum += v
		sumsq += v * v
	}
	cfg := Config{BootstrapBelow: 2} // force normal at any n ≥ 2
	iv := e.Interval(cfg, "v")
	if iv.Method != "normal" || iv.N != len(vals) {
		t.Fatalf("interval = %+v, want normal over %d", iv, len(vals))
	}
	n := float64(len(vals))
	mean := sum / n
	sd := math.Sqrt((sumsq - sum*sum/n) / (n - 1))
	want := z95 * sd / math.Sqrt(n)
	if math.Abs(iv.Mean-mean) > 1e-12 || math.Abs(iv.HalfWidth-want) > 1e-12 {
		t.Fatalf("interval = %+v, want mean %v half-width %v", iv, mean, want)
	}
}

func TestBootstrapDeterministicPerSeed(t *testing.T) {
	build := func() *Estimator {
		e := &Estimator{}
		for _, v := range []float64{3.0, 3.2, 2.9, 3.1, 3.05} {
			e.Add(v)
		}
		return e
	}
	a := build().Interval(Config{Seed: 7}, "v1")
	b := build().Interval(Config{Seed: 7}, "v1")
	if a.Method != "bootstrap" {
		t.Fatalf("method = %q, want bootstrap at n=5", a.Method)
	}
	if a != b {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
	if c := build().Interval(Config{Seed: 8}, "v1"); c.HalfWidth == a.HalfWidth {
		t.Fatalf("different seeds produced identical bootstrap half-width %v", c.HalfWidth)
	}
	if d := build().Interval(Config{Seed: 7}, "v2"); d.HalfWidth == a.HalfWidth {
		t.Fatalf("different videos share one bootstrap stream (half-width %v)", d.HalfWidth)
	}
}

func TestResolutionStickyAndClosing(t *testing.T) {
	a := New("timeline", Config{HalfWidth: 0.5, MinKept: 3, Seed: 1})
	a.AddVideo("v1")
	a.AddVideo("v2")
	sub := []time.Duration{3 * time.Second, 3 * time.Second, 3 * time.Second}
	// Three kept sessions, each answering both videos plus a control.
	for i := 0; i < 3; i++ {
		vids := []string{"v1", "v2", "v1"}
		a.NoteJoin(vids)
		a.Complete(timelineRecord("w", vids, sub, 2), filtering.Kept)
	}
	st := a.Status()
	if st[0].State != StateResolved || st[0].Kept != 3 {
		t.Fatalf("v1 = %+v, want resolved with 3 kept (1 per session, control excluded)", st[0])
	}
	if st[1].State != StateResolved {
		t.Fatalf("v2 = %+v, want resolved", st[1])
	}
	if !a.Closed() {
		t.Fatal("campaign should close when every video resolves")
	}
	if r, tot := a.Resolved(); r != 2 || tot != 2 {
		t.Fatalf("Resolved() = %d/%d, want 2/2", r, tot)
	}
	// A wildly divergent late session must not reopen a resolved video.
	vids := []string{"v1", "v1", "v1"}
	a.NoteJoin(vids)
	a.Complete(timelineRecord("w", vids, []time.Duration{time.Minute, time.Minute, time.Minute}, 2), filtering.Kept)
	if a.Status()[0].State != StateResolved || !a.Closed() {
		t.Fatal("resolution must be sticky")
	}
	// A new video is a new comparison: the campaign reopens.
	a.AddVideo("v3")
	if a.Closed() {
		t.Fatal("AddVideo must reopen a closed campaign")
	}
}

func TestDroppedSessionsReleaseBudgetWithoutSamples(t *testing.T) {
	a := New("timeline", Config{HalfWidth: 0.5, MinKept: 3, Seed: 1})
	a.AddVideo("v1")
	vids := []string{"v1", "v1", "v1"}
	a.NoteJoin(vids)
	if got := a.Status()[0].Pending; got != 3 {
		t.Fatalf("pending = %d, want 3 after join", got)
	}
	sub := []time.Duration{3 * time.Second, 3 * time.Second, 3 * time.Second}
	a.Complete(timelineRecord("w", vids, sub, 2), filtering.DropControl)
	st := a.Status()[0]
	if st.Pending != 0 || st.Kept != 0 || st.State != StateCollecting {
		t.Fatalf("dropped session left %+v, want budget released and no samples", st)
	}
}

func TestAssignSteersAtUnderSampledUnresolved(t *testing.T) {
	a := New("timeline", Config{HalfWidth: 0.2, MinKept: 2, Seed: 1})
	for _, v := range []string{"v1", "v2", "v3"} {
		a.AddVideo(v)
	}
	live := []string{"v1", "v2", "v3"}
	// Fresh campaign: everything ties, registration order breaks it.
	if got := a.Assign(live); !reflect.DeepEqual(got, live) {
		t.Fatalf("fresh pool = %v, want registration order %v", got, live)
	}
	// Resolve v1; give v2 one kept sample. Pool drops v1 and leads with
	// the never-sampled v3.
	tight := []time.Duration{3 * time.Second, 3 * time.Second, 3 * time.Second}
	for i := 0; i < 2; i++ {
		vids := []string{"v1", "v1", "v1"}
		a.NoteJoin(vids)
		a.Complete(timelineRecord("w", vids, tight, 2), filtering.Kept)
	}
	vids := []string{"v2", "v2", "v2"}
	a.NoteJoin(vids)
	a.Complete(timelineRecord("w", vids, []time.Duration{time.Second, 9 * time.Second, 5 * time.Second}, 2), filtering.Kept)
	got := a.Assign(live)
	if !reflect.DeepEqual(got, []string{"v3", "v2"}) {
		t.Fatalf("pool = %v, want [v3 v2] (resolved v1 excluded, unsampled first)", got)
	}
	// In-flight assignments count as bought samples: a pending join on v3
	// hands the lead to v2 — even though v3's provisional sessions would
	// all read DropSoft if the allocator (wrongly) consulted verdicts.
	a.NoteJoin([]string{"v3", "v3", "v3"})
	got = a.Assign(live)
	if !reflect.DeepEqual(got, []string{"v2", "v3"}) {
		t.Fatalf("pool = %v, want [v2 v3] once v3 has 3 in flight", got)
	}
	// All resolved → pool falls back to every live video (close races).
	if got := a.Assign([]string{"v1"}); !reflect.DeepEqual(got, []string{"v1"}) {
		t.Fatalf("pool = %v, want fallback to live when all resolved", got)
	}
}

func TestABVotesMapToPreferenceScores(t *testing.T) {
	a := New("ab", Config{HalfWidth: 0.3, MinKept: 3, Seed: 1})
	a.AddVideo("v1")
	choices := []survey.ABChoice{survey.ChoiceLeft, survey.ChoiceLeft, survey.ChoiceNoDifference}
	for _, ch := range choices {
		rec := &filtering.SessionRecord{Participant: &crowd.Participant{ID: "w"}}
		rec.AB = append(rec.AB, &survey.ABResponse{
			VideoID: "v1", Choice: ch, AOnLeft: true, ControlPassed: true,
		})
		a.NoteJoin([]string{"v1"})
		a.Complete(rec, filtering.Kept)
	}
	st := a.Status()[0]
	if st.Kept != 3 {
		t.Fatalf("kept = %d, want 3", st.Kept)
	}
	want := (1.0 + 1.0 + 0.5) / 3
	if math.Abs(st.Mean-want) > 1e-12 {
		t.Fatalf("mean preference = %v, want %v", st.Mean, want)
	}
}

func TestStatusJSONSafeBeforeTwoSamples(t *testing.T) {
	a := New("timeline", Config{})
	a.AddVideo("v1")
	vids := []string{"v1"}
	a.NoteJoin(vids)
	a.Complete(timelineRecord("w", vids, []time.Duration{3 * time.Second}, -1), filtering.Kept)
	st := a.Status()[0]
	if st.Method != "" || st.HalfWidth != 0 {
		t.Fatalf("n=1 status = %+v, want no computable interval (JSON cannot carry Inf)", st)
	}
}

// loadedCampaign is a timeline campaign over videos videos in which
// every video has keptPer kept samples: each session answers six
// regular tests cycled over the videos plus a control, with a spread of
// submissions, and the target half-width is too tight to resolve
// anything, so every video stays in the allocator's pool.
func loadedCampaign(videos, keptPer int) (*Campaign, []string) {
	a := New("timeline", Config{HalfWidth: 1e-9, Seed: 3})
	ids := make([]string, videos)
	for i := range ids {
		ids[i] = fmt.Sprintf("v%02d", i)
		a.AddVideo(ids[i])
	}
	const regular = 6
	for k := 0; k < videos*keptPer; k += regular {
		vids := make([]string, 0, regular+1)
		sub := make([]time.Duration, 0, regular+1)
		for j := 0; j < regular && k+j < videos*keptPer; j++ {
			vids = append(vids, ids[(k+j)%videos])
			sub = append(sub, time.Duration(1000+(k+j)*37%2500)*time.Millisecond)
		}
		vids = append(vids, ids[0])
		sub = append(sub, 2*time.Second)
		a.NoteJoin(vids)
		a.Complete(timelineRecord(fmt.Sprintf("w%d", k), vids, sub, len(vids)-1), filtering.Kept)
	}
	return a, ids
}

func TestCachedIntervalsMatchEstimator(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	a := New("timeline", Config{HalfWidth: 0.05, MinKept: 3, BootstrapBelow: 8, Seed: 9})
	vids := []string{"v1", "v2", "v3"}
	for _, v := range vids {
		a.AddVideo(v)
	}
	for i := 0; i < 40; i++ {
		assigned := []string{vids[r.Intn(3)], vids[r.Intn(3)], vids[r.Intn(3)], vids[0]}
		sub := make([]time.Duration, len(assigned))
		for j := range sub {
			sub[j] = time.Duration(500+r.Intn(4000)) * time.Millisecond
		}
		verdict := filtering.Kept
		if r.Intn(4) == 0 {
			verdict = filtering.DropSoft
		}
		a.NoteJoin(assigned)
		a.Complete(timelineRecord("w", assigned, sub, 3), verdict)
		for _, st := range a.Status() {
			var want Interval
			if e := a.est[st.Video]; e != nil {
				want = e.Interval(a.cfg, st.Video)
			}
			if st.Interval != want {
				t.Fatalf("session %d, %s: cached %+v, recomputed %+v", i, st.Video, st.Interval, want)
			}
		}
	}
}

// TestReadsRunNoBootstrap pins that Status and Assign only read the
// cached intervals: their allocations do not depend on how many samples
// each video holds, and match a campaign with no samples at all.
func TestReadsRunNoBootstrap(t *testing.T) {
	reads := func(a *Campaign, live []string) (status, assign float64) {
		status = testing.AllocsPerRun(50, func() { _ = a.Status() })
		assign = testing.AllocsPerRun(50, func() { _ = a.Assign(live) })
		return status, assign
	}
	empty, live := loadedCampaign(16, 0)
	s0, a0 := reads(empty, live)
	for _, kept := range []int{10, 25} {
		a, live := loadedCampaign(16, kept)
		if st := a.Status(); st[1].Kept != kept || st[1].Method != "bootstrap" {
			t.Fatalf("loaded campaign: %+v, want %d kept under the bootstrap", st[1], kept)
		}
		s, as := reads(a, live)
		if s != s0 || as != a0 {
			t.Fatalf("at %d kept per video: Status %v allocs, Assign %v; with no samples %v and %v", kept, s, as, s0, a0)
		}
	}
}

func BenchmarkCampaignAssign(b *testing.B) {
	a, live := loadedCampaign(16, 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = a.Assign(live)
	}
}

func BenchmarkCampaignStatus(b *testing.B) {
	a, _ := loadedCampaign(16, 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = a.Status()
	}
}
