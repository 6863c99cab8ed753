package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/eyeorg/eyeorg/internal/browsersim"
	"github.com/eyeorg/eyeorg/internal/platform"
	"github.com/eyeorg/eyeorg/internal/store"
	"github.com/eyeorg/eyeorg/internal/video"
	"github.com/eyeorg/eyeorg/internal/vision"
)

// cc drives an http.Handler in-process (no listener).
type cc struct {
	t *testing.T
	h http.Handler
}

func (c *cc) do(method, path string, body any, out any) (int, http.Header) {
	c.t.Helper()
	var buf bytes.Buffer
	switch b := body.(type) {
	case nil:
	case []byte:
		buf.Write(b)
	default:
		if err := json.NewEncoder(&buf).Encode(b); err != nil {
			c.t.Fatal(err)
		}
	}
	req := httptest.NewRequest(method, path, &buf)
	rec := httptest.NewRecorder()
	c.h.ServeHTTP(rec, req)
	if out != nil {
		_ = json.NewDecoder(rec.Body).Decode(out)
	}
	return rec.Code, rec.Header()
}

func (c *cc) body(method, path string) (int, []byte) {
	c.t.Helper()
	req := httptest.NewRequest(method, path, nil)
	rec := httptest.NewRecorder()
	c.h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

func sampleVideoBytes() []byte {
	paints := []browsersim.PaintEvent{
		{T: 300 * time.Millisecond, Rect: vision.Rect{X: 0, Y: 0, W: vision.GridW, H: vision.GridH}, Value: 1},
		{T: 1200 * time.Millisecond, Rect: vision.Rect{X: 0, Y: 2, W: 30, H: 10}, Value: 2},
	}
	return video.Encode(video.Capture(paints, 3*time.Second, 10))
}

func newTestCluster(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	if len(cfg.Nodes) == 0 {
		cfg.Nodes = []string{"a", "b", "c"}
	}
	cfg.Dir = t.TempDir()
	cfg.SnapshotEvery = -1
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// createCampaign makes a campaign through the router and returns its
// ID and owning node.
func createCampaign(t *testing.T, c *Cluster, rc *cc) (id, owner string) {
	t.Helper()
	var created platform.CreateCampaignResponse
	code, _ := rc.do("POST", "/api/v1/campaigns", platform.CreateCampaignRequest{Name: "t", Kind: "timeline"}, &created)
	if code != http.StatusCreated {
		t.Fatalf("create campaign: %d", code)
	}
	c.router.mu.RLock()
	owner = c.router.campaigns[created.ID]
	c.router.mu.RUnlock()
	if owner == "" {
		t.Fatalf("router learned no owner for %s", created.ID)
	}
	if !c.Node(owner).srv.HasCampaign(created.ID) {
		t.Fatalf("campaign %s not on its owner %s", created.ID, owner)
	}
	return created.ID, owner
}

// otherNode picks a member of the default three-node cluster other
// than owner.
func otherNode(owner string) string {
	if owner == "a" {
		return "b"
	}
	return "a"
}

func addVideos(t *testing.T, rc *cc, campaign string, n int) []string {
	t.Helper()
	var ids []string
	for i := 0; i < n; i++ {
		var added platform.AddVideoResponse
		code, _ := rc.do("POST", "/api/v1/campaigns/"+campaign+"/videos", sampleVideoBytes(), &added)
		if code != http.StatusCreated {
			t.Fatalf("add video: %d", code)
		}
		ids = append(ids, added.ID)
	}
	return ids
}

func joinVia(t *testing.T, rc *cc, campaign, worker string) platform.JoinResponse {
	t.Helper()
	var jr platform.JoinResponse
	code, _ := rc.do("POST", "/api/v1/sessions", platform.JoinRequest{
		Campaign: campaign,
		Worker:   platform.Worker{ID: worker, Gender: "f", Country: "VE", Source: "crowdflower"},
		Captcha:  "ok",
	}, &jr)
	if code != http.StatusCreated {
		t.Fatalf("join %s: %d", campaign, code)
	}
	return jr
}

// completeVia answers a session's full assignment through the given
// handler; every POST must ack.
func completeVia(rc *cc, jr platform.JoinResponse) error {
	for _, tt := range jr.Tests {
		if code, _ := rc.do("POST", "/api/v1/sessions/"+jr.Session+"/events", platform.EventBatch{
			VideoID: tt.VideoID, LoadMs: 900, TimeOnVideoMs: 21_000,
			Seeks: 10, Plays: 1, WatchedFraction: 0.9,
		}, nil); code >= 300 {
			return fmt.Errorf("events for %s: %d", jr.Session, code)
		}
		if code, _ := rc.do("POST", "/api/v1/sessions/"+jr.Session+"/responses", platform.ResponseBody{
			TestID: tt.TestID, SliderMs: 1600, HelperMs: 1400, SubmittedMs: 1500, KeptOriginal: true,
		}, nil); code >= 300 {
			return fmt.Errorf("response for %s: %d", jr.Session, code)
		}
	}
	return nil
}

// analyticsSessions fetches /analytics and indexes participant
// verdicts by session ID.
func analyticsSessions(t *testing.T, rc *cc, campaign string) map[string]platform.ParticipantVerdict {
	t.Helper()
	var ar platform.AnalyticsResponse
	code, _ := rc.do("GET", "/api/v1/campaigns/"+campaign+"/analytics", nil, &ar)
	if code != http.StatusOK {
		t.Fatalf("analytics %s: %d", campaign, code)
	}
	out := map[string]platform.ParticipantVerdict{}
	for _, p := range ar.Participants {
		out[p.Session] = p
	}
	return out
}

func TestClusterLifecycle(t *testing.T) {
	c := newTestCluster(t, Config{})
	rc := &cc{t: t, h: c.Handler()}
	seen := map[string]bool{}
	// Spread campaigns until at least two nodes own one.
	var campaigns []string
	for i := 0; i < 24 && len(seen) < 2; i++ {
		id, owner := createCampaign(t, c, rc)
		campaigns = append(campaigns, id)
		seen[owner] = true
	}
	if len(seen) < 2 {
		t.Fatalf("24 campaigns landed on one node — ring not partitioning")
	}
	for _, id := range campaigns[:2] {
		addVideos(t, rc, id, 2)
		jr := joinVia(t, rc, id, "w-"+id)
		if err := completeVia(rc, jr); err != nil {
			t.Fatal(err)
		}
		got := analyticsSessions(t, rc, id)
		p, ok := got[jr.Session]
		if !ok || !p.Completed {
			t.Fatalf("campaign %s: session %s missing or incomplete via router: %+v", id, jr.Session, p)
		}
		// The video fetch routes by entity table / ID tag.
		code, _ := rc.body("GET", "/api/v1/videos/"+jr.Tests[0].VideoID)
		if code != http.StatusOK {
			t.Fatalf("video fetch via router: %d", code)
		}
	}
}

func TestMisroutedAfterHandoff(t *testing.T) {
	c := newTestCluster(t, Config{})
	rc := &cc{t: t, h: c.Handler()}
	id, owner := createCampaign(t, c, rc)
	addVideos(t, rc, id, 2)
	jr := joinVia(t, rc, id, "w-before")
	if err := completeVia(rc, jr); err != nil {
		t.Fatal(err)
	}
	target := otherNode(owner)
	_, preMove := rc.body("GET", "/api/v1/campaigns/"+id+"/results")
	if err := c.MoveCampaign(id, owner, target); err != nil {
		t.Fatal(err)
	}

	// Misrouted join straight at the OLD node: fenced 307 whose
	// Location names the new owner, and no session created there.
	old := &cc{t: t, h: c.Node(owner).Handler()}
	joinBody := platform.JoinRequest{
		Campaign: id,
		Worker:   platform.Worker{ID: "w-misrouted", Gender: "m", Country: "DE", Source: "microworkers"},
		Captcha:  "ok",
	}
	sessionsBefore := len(c.Node(owner).srv.CampaignIDs())
	code, hdr := old.do("POST", "/api/v1/sessions", joinBody, nil)
	if code != http.StatusTemporaryRedirect {
		t.Fatalf("misrouted join: got %d, want 307", code)
	}
	loc := hdr.Get("Location")
	if want := c.Node(target).Base + "/api/v1/sessions"; loc != want {
		t.Fatalf("redirect Location = %q, want %q", loc, want)
	}
	if got := len(c.Node(owner).srv.CampaignIDs()); got != sessionsBefore {
		t.Fatalf("misrouted join mutated the old owner")
	}
	// Following the redirect (client replays the same body at the new
	// owner) applies exactly once.
	newNode := &cc{t: t, h: c.Node(target).Handler()}
	var jr2 platform.JoinResponse
	if code, _ := newNode.do("POST", strings.TrimPrefix(loc, c.Node(target).Base), joinBody, &jr2); code != http.StatusCreated {
		t.Fatalf("replayed join at new owner: %d", code)
	}
	// Misrouted session-scoped POST (the pre-move session) also fences.
	if code, _ := old.do("POST", "/api/v1/sessions/"+jr.Session+"/events",
		platform.EventBatch{VideoID: jr.Tests[0].VideoID, Plays: 1}, nil); code != http.StatusTemporaryRedirect {
		t.Fatalf("misrouted events: got %d, want 307", code)
	}
	// Even bypassing the middleware, the journaled fence refuses the
	// mutation — the no-double-apply guard is in the apply functions.
	rawOld := &cc{t: t, h: c.Node(owner).srv.Handler()}
	if code, _ := rawOld.do("POST", "/api/v1/sessions", joinBody, nil); code != http.StatusConflict {
		t.Fatalf("fence bypass: got %d, want 409", code)
	}
	// The router serves the moved campaign seamlessly, state intact:
	// the pre-move session completed, the replayed join present.
	got := analyticsSessions(t, rc, id)
	if p, ok := got[jr.Session]; !ok || !p.Completed {
		t.Fatalf("pre-move session lost across handoff: %+v", p)
	}
	if _, ok := got[jr2.Session]; !ok {
		t.Fatalf("replayed join missing on new owner")
	}
	// Migration preserved /results byte-for-byte (before the new join).
	if err := completeVia(rc, jr2); err != nil {
		t.Fatal(err)
	}
	_, postMove := rc.body("GET", "/api/v1/campaigns/"+id+"/results")
	if bytes.Equal(preMove, postMove) {
		// postMove now includes jr2; they must differ — sanity check
		// that results reflect post-move writes at all.
		t.Fatalf("results unchanged after post-move session completed")
	}
}

// TestHandoffSurvivesRestart replays a handoff's two records across a
// restart: the old owner's journaled fence and the new owner's import.
// After New reopens the same Dir with a fresh router, the old owner
// still answers 307 toward the new one, the moved campaign's /results
// are byte-identical, and a join lands exactly once, on the new owner.
func TestHandoffSurvivesRestart(t *testing.T) {
	cfg := Config{Nodes: []string{"a", "b", "c"}, Dir: t.TempDir(), SnapshotEvery: -1, Fsync: true, GroupCommit: true}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	rc := &cc{t: t, h: c.Handler()}
	id, owner := createCampaign(t, c, rc)
	addVideos(t, rc, id, 2)
	for w := 0; w < 3; w++ {
		if err := completeVia(rc, joinVia(t, rc, id, fmt.Sprintf("w-%d", w))); err != nil {
			t.Fatal(err)
		}
	}
	target := otherNode(owner)
	if err := c.MoveCampaign(id, owner, target); err != nil {
		t.Fatal(err)
	}
	results := "/api/v1/campaigns/" + id + "/results"
	code, pre := rc.body("GET", results)
	if code != http.StatusOK {
		t.Fatalf("pre-restart results: %d", code)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	c2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c2.Close() })
	old := &cc{t: t, h: c2.Node(owner).Handler()}
	code, hdr := old.do("GET", results, nil, nil)
	if code != http.StatusTemporaryRedirect {
		t.Fatalf("old owner after restart: got %d, want 307", code)
	}
	if want := c2.Node(target).Base + results; hdr.Get("Location") != want {
		t.Fatalf("old owner Location = %q, want %q", hdr.Get("Location"), want)
	}
	rc2 := &cc{t: t, h: c2.Handler()}
	code, post := rc2.body("GET", results)
	if code != http.StatusOK {
		t.Fatalf("post-restart results via router: %d", code)
	}
	if !bytes.Equal(pre, post) {
		t.Fatalf("/results diverged across restart\npre:  %s\npost: %s", pre, post)
	}

	rawOld := &cc{t: t, h: c2.Node(owner).srv.Handler()}
	oldBefore := analyticsSessions(t, rawOld, id)
	newBefore := analyticsSessions(t, rc2, id)
	jr := joinVia(t, rc2, id, "w-after-restart")
	if got := analyticsSessions(t, rawOld, id); len(got) != len(oldBefore) {
		t.Fatalf("post-restart join reached the fenced old owner: %d sessions, want %d", len(got), len(oldBefore))
	}
	newAfter := analyticsSessions(t, rc2, id)
	if len(newAfter) != len(newBefore)+1 {
		t.Fatalf("post-restart join: new owner has %d sessions, want %d", len(newAfter), len(newBefore)+1)
	}
	if p, ok := newAfter[jr.Session]; !ok || p.Worker != "w-after-restart" {
		t.Fatalf("post-restart join %s missing on the new owner: %+v", jr.Session, p)
	}
}

// TestHandoffUnderLoad moves a campaign while six goroutines run
// sessions on it through the router. Every session whose final
// response was acked must be present and completed on the new owner,
// every session the fenced old owner still holds must have moved with
// the campaign, and the new owner's import must carry the old owner's
// fence: the export was taken after the fence, so it is complete.
func TestHandoffUnderLoad(t *testing.T) {
	c := newTestCluster(t, Config{Fsync: true, GroupCommit: true})
	rc := &cc{t: t, h: c.Handler()}
	id, owner := createCampaign(t, c, rc)
	addVideos(t, rc, id, 2)
	target := otherNode(owner)

	var mu sync.Mutex
	var acked []string
	ackedN := func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(acked)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			lrc := &cc{t: t, h: c.Handler()}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				var jr platform.JoinResponse
				code, _ := lrc.do("POST", "/api/v1/sessions", platform.JoinRequest{
					Campaign: id,
					Worker:   platform.Worker{ID: fmt.Sprintf("w%d-%d", g, i), Gender: "f", Country: "BR", Source: "crowdflower"},
					Captcha:  "ok",
				}, &jr)
				if code != http.StatusCreated {
					continue // refused mid-handoff: nothing acked, nothing owed
				}
				if completeVia(lrc, jr) == nil {
					mu.Lock()
					acked = append(acked, jr.Session)
					mu.Unlock()
				}
			}
		}(g)
	}
	waitAcked := func(n int) {
		deadline := time.Now().Add(10 * time.Second)
		for ackedN() < n {
			if time.Now().After(deadline) {
				close(stop)
				wg.Wait()
				t.Fatalf("only %d sessions acked, want %d", ackedN(), n)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitAcked(12)
	if err := c.MoveCampaign(id, owner, target); err != nil {
		close(stop)
		wg.Wait()
		t.Fatal(err)
	}
	waitAcked(ackedN() + 12)
	close(stop)
	wg.Wait()

	onNew := analyticsSessions(t, &cc{t: t, h: c.Node(target).Handler()}, id)
	for _, sid := range acked {
		if p, ok := onNew[sid]; !ok || !p.Completed {
			t.Fatalf("acked session %s missing or incomplete on the new owner: %+v", sid, p)
		}
	}
	if moved, ok := c.Node(owner).srv.MovedTo(id); !ok || moved != target {
		t.Fatalf("old owner's fence = %q, %v; want %q", moved, ok, target)
	}
	for sid, p := range analyticsSessions(t, &cc{t: t, h: c.Node(owner).srv.Handler()}, id) {
		q, ok := onNew[sid]
		if !ok {
			t.Fatalf("session %s stranded on the old owner: not on the new owner", sid)
		}
		if p.Completed && !q.Completed {
			t.Fatalf("session %s completed on the old owner but not on the new owner", sid)
		}
	}

	// Fence-first: the export inside the new owner's import record
	// already carries the old owner's fence.
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	jl, err := store.Open(filepath.Join(c.cfg.Dir, target), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer jl.Close()
	imports := 0
	err = jl.Replay(func(_ uint64, payload []byte) error {
		var rec struct {
			Op    string `json:"op"`
			State struct {
				Campaign struct {
					ID    string `json:"id"`
					Moved string `json:"moved"`
				} `json:"campaign"`
			} `json:"state"`
		}
		if err := json.Unmarshal(payload, &rec); err != nil || rec.Op != "import" {
			return err
		}
		imports++
		if rec.State.Campaign.ID != id || rec.State.Campaign.Moved != target {
			return fmt.Errorf("import of %s exported with fence %q, want %q (export before fence)",
				rec.State.Campaign.ID, rec.State.Campaign.Moved, target)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if imports != 1 {
		t.Fatalf("new owner journaled %d import records, want 1", imports)
	}
}

// TestRouterRedirectMode: the router answers 307 with the owner's base
// and the client-side replay lands.
func TestRouterRedirectMode(t *testing.T) {
	c := newTestCluster(t, Config{RouterMode: "redirect"})
	rc := &cc{t: t, h: c.Handler()}
	// Campaign create is always proxied (the router mints the ID);
	// subsequent requests redirect.
	id, owner := createCampaign(t, c, rc)
	code, hdr := rc.do("GET", "/api/v1/campaigns/"+id+"/analytics", nil, nil)
	if code != http.StatusTemporaryRedirect {
		t.Fatalf("redirect mode: got %d, want 307", code)
	}
	want := c.Node(owner).Base + "/api/v1/campaigns/" + id + "/analytics"
	if hdr.Get("Location") != want {
		t.Fatalf("Location = %q, want %q", hdr.Get("Location"), want)
	}
	node := &cc{t: t, h: c.Node(owner).Handler()}
	if code, _ := node.do("GET", "/api/v1/campaigns/"+id+"/analytics", nil, nil); code != http.StatusOK {
		t.Fatalf("follow to node: %d", code)
	}
}

// TestRouterMetrics: the router's registry renders its own rows.
func TestRouterMetrics(t *testing.T) {
	c := newTestCluster(t, Config{})
	rc := &cc{t: t, h: c.Handler()}
	id, _ := createCampaign(t, c, rc)
	addVideos(t, rc, id, 1)
	code, body := rc.body("GET", "/metrics")
	if code != http.StatusOK {
		t.Fatalf("router metrics: %d", code)
	}
	for _, want := range []string{
		"eyeorg_router_requests_total",
		"eyeorg_router_unroutable_total 0",
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("router /metrics missing %q:\n%s", want, body)
		}
	}
	// Node registries carry the cluster ownership rows.
	nodeCode, nodeBody := (&cc{t: t, h: c.Node("a").srv.Metrics().Handler()}).body("GET", "/")
	if nodeCode != http.StatusOK {
		t.Fatalf("node metrics: %d", nodeCode)
	}
	if !strings.Contains(string(nodeBody), `eyeorg_cluster_campaigns_owned{node="a"}`) {
		t.Fatalf("node /metrics missing cluster ownership row:\n%s", nodeBody)
	}
}
