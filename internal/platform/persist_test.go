package platform

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/eyeorg/eyeorg/internal/store"
	"github.com/eyeorg/eyeorg/internal/wire"
)

// openPersisted opens a server over dir and wraps it in a test client.
// Tests "crash" these servers by abandoning them, so cleanup waits for
// any background snapshot still writing into dir before the temp dir
// is removed (the client's listener closes first, so none can start).
func openPersisted(t *testing.T, dir string, opts Options) (*Server, *client) {
	t.Helper()
	opts.DataDir = dir
	srv, err := Open(opts)
	if err != nil {
		t.Fatalf("open %s: %v", dir, err)
	}
	t.Cleanup(srv.snapWG.Wait)
	return srv, newClientFor(t, srv)
}

// rawResults fetches the exact /results body bytes.
func rawResults(t *testing.T, c *client, campaign string) []byte {
	t.Helper()
	resp, err := http.Get(c.srv.URL + "/api/v1/campaigns/" + campaign + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("results: %d", resp.StatusCode)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// seedPersistedCampaign builds a campaign with completed sessions, a
// flagged-to-ban video, and one in-flight session.
func seedPersistedCampaign(t *testing.T, c *client) (campaign string, vids []string) {
	t.Helper()
	campaign, vids = setupCampaign(c, "timeline", 3)
	for i := 0; i < 4; i++ {
		jr := join(c, campaign, fmt.Sprintf("persist-%d", i))
		completeSession(c, jr, 1400+float64(i)*137, true, 12, 0)
	}
	// One engagement-filtered participant for non-trivial summary rows.
	jr := join(c, campaign, "persist-away")
	completeSession(c, jr, 9000, true, 12, 45_000)
	// Ban one video so the Banned bit must survive recovery.
	for i := 0; i < BanThreshold; i++ {
		c.do("POST", "/api/v1/videos/"+vids[2]+"/flag", map[string]string{"worker": fmt.Sprintf("flagger-%d", i)}, nil)
	}
	// An in-flight (incomplete) session must also survive.
	half := join(c, campaign, "persist-half")
	c.do("POST", "/api/v1/sessions/"+half.Session+"/events", EventBatch{InstructionMs: 20_000}, nil)
	c.do("POST", "/api/v1/sessions/"+half.Session+"/responses", ResponseBody{
		TestID: half.Tests[0].TestID, SliderMs: 1200, SubmittedMs: 1100, KeptOriginal: true,
	}, nil)
	return campaign, vids
}

// TestCrashRecoveryByteIdenticalResults is the acceptance check: a
// reopened store serves byte-identical /results.
func TestCrashRecoveryByteIdenticalResults(t *testing.T) {
	dir := t.TempDir()
	srv, c := openPersisted(t, dir, Options{})
	campaign, vids := seedPersistedCampaign(t, c)
	before := rawResults(t, c, campaign)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	srv2, c2 := openPersisted(t, dir, Options{})
	defer srv2.Close()
	after := rawResults(t, c2, campaign)
	if !bytes.Equal(before, after) {
		t.Fatalf("results diverged after reopen:\n before: %s\n after:  %s", before, after)
	}
	// Recovered ban state: the banned video is still 410.
	if code := c2.do("GET", "/api/v1/videos/"+vids[2], nil, nil); code != http.StatusGone {
		t.Fatalf("banned video after reopen: %d, want 410", code)
	}
	// Fresh IDs do not collide with recovered entities.
	var created CreateCampaignResponse
	if code := c2.do("POST", "/api/v1/campaigns", CreateCampaignRequest{Name: "new", Kind: "ab"}, &created); code != http.StatusCreated {
		t.Fatalf("create after reopen: %d", code)
	}
	if created.ID == campaign {
		t.Fatalf("recovered server reissued campaign ID %s", created.ID)
	}
	// New sessions keep working against the recovered state.
	jr := join(c2, campaign, "post-restart")
	completeSession(c2, jr, 1500, true, 12, 0)
	var res ResultsResponse
	c2.do("GET", "/api/v1/campaigns/"+campaign+"/results", nil, &res)
	if res.Participants != 6 {
		t.Fatalf("participants after post-restart session = %d, want 6", res.Participants)
	}
}

// TestRecoveryFromSnapshotPlusTail forces snapshots mid-run so recovery
// exercises the snapshot + journal-tail path, not pure replay.
func TestRecoveryFromSnapshotPlusTail(t *testing.T) {
	dir := t.TempDir()
	srv, c := openPersisted(t, dir, Options{SnapshotEvery: 10, SegmentBytes: 4 << 10})
	campaign, _ := seedPersistedCampaign(t, c)
	before := rawResults(t, c, campaign)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	snaps, err := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if err != nil || len(snaps) == 0 {
		t.Fatalf("no snapshots written (err=%v); cadence broken", err)
	}

	srv2, c2 := openPersisted(t, dir, Options{SnapshotEvery: 10, SegmentBytes: 4 << 10})
	defer srv2.Close()
	after := rawResults(t, c2, campaign)
	if !bytes.Equal(before, after) {
		t.Fatalf("snapshot+tail recovery diverged:\n before: %s\n after:  %s", before, after)
	}
}

// TestRecoveryAfterTornTail simulates a crash mid-append: garbage at
// the journal tail is truncated and everything before it survives.
func TestRecoveryAfterTornTail(t *testing.T) {
	dir := t.TempDir()
	srv, c := openPersisted(t, dir, Options{})
	campaign, _ := seedPersistedCampaign(t, c)
	before := rawResults(t, c, campaign)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments (err=%v)", err)
	}
	f, err := os.OpenFile(segs[len(segs)-1], os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("\x40\x00\x00\x00torn-mid-append")); err != nil {
		t.Fatal(err)
	}
	f.Close()

	srv2, c2 := openPersisted(t, dir, Options{})
	defer srv2.Close()
	after := rawResults(t, c2, campaign)
	if !bytes.Equal(before, after) {
		t.Fatalf("torn-tail recovery diverged:\n before: %s\n after:  %s", before, after)
	}
}

// TestExplicitSnapshotCompacts verifies Server.Snapshot writes a
// snapshot and the journal keeps serving identical state from it.
func TestExplicitSnapshotCompacts(t *testing.T) {
	dir := t.TempDir()
	srv, c := openPersisted(t, dir, Options{SnapshotEvery: -1})
	campaign, _ := seedPersistedCampaign(t, c)
	before := rawResults(t, c, campaign)
	if err := srv.Snapshot(); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if len(snaps) != 1 {
		t.Fatalf("snapshots on disk = %d, want 1", len(snaps))
	}

	srv2, c2 := openPersisted(t, dir, Options{SnapshotEvery: -1})
	defer srv2.Close()
	after := rawResults(t, c2, campaign)
	if !bytes.Equal(before, after) {
		t.Fatalf("snapshot-only recovery diverged:\n before: %s\n after:  %s", before, after)
	}
}

// TestInMemoryServerHasNoJournal pins the in-memory default: an empty
// DataDir opens no journal, so nothing can ever reach the filesystem,
// and Snapshot/Close are no-ops even after traffic.
func TestInMemoryServerHasNoJournal(t *testing.T) {
	srv := NewServer()
	if srv.log != nil {
		t.Fatal("in-memory server opened a journal")
	}
	c := newClientFor(t, srv)
	id, _ := setupCampaign(c, "timeline", 1)
	completeSession(c, join(c, id, "mem-only"), 1500, true, 10, 0)
	if err := srv.Snapshot(); err != nil {
		t.Fatalf("in-memory Snapshot should no-op: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("in-memory Close should no-op: %v", err)
	}
}

// TestJSONEventsJournalAsBatch pins the journal form of a JSON /events
// body: one opBatch record whose wire field is the EYB1 encoding of
// the body's records, with no JSON batch document beside it.
func TestJSONEventsJournalAsBatch(t *testing.T) {
	dir := t.TempDir()
	srv, c := openPersisted(t, dir, Options{})
	campaign, _ := setupCampaign(c, "timeline", 1)
	jr := join(c, campaign, "journal-shape")
	bodies := []EventBatch{
		{InstructionMs: 12_345.5},
		{VideoID: jr.Tests[0].VideoID, LoadMs: 900.25, TimeOnVideoMs: 21_000, Plays: 1, Seeks: 2, WatchedFraction: 0.9, OutOfFocusMs: 15},
		{InstructionMs: 3, VideoID: jr.Tests[1].VideoID, Pauses: 4},
		{}, // neither field: still one (empty) batch record
	}
	for _, b := range bodies {
		if code := c.do("POST", "/api/v1/sessions/"+jr.Session+"/events", b, nil); code != http.StatusAccepted {
			t.Fatalf("events %+v: %d", b, code)
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	jl, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer jl.Close()
	var got [][]byte
	if err := jl.Replay(func(_ uint64, payload []byte) error {
		var ev event
		if err := json.Unmarshal(payload, &ev); err != nil {
			return err
		}
		if ev.ID == jr.Session && ev.Op != opSession {
			got = append(got, payload)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(bodies) {
		t.Fatalf("journaled %d event records, want %d", len(got), len(bodies))
	}
	for i, b := range bodies {
		want, err := json.Marshal(&event{Op: opBatch, ID: jr.Session, Wire: wire.AppendBatch(nil, AppendWireRecords(nil, b))})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[i], want) {
			t.Fatalf("record %d:\n got  %s\n want %s", i, got[i], want)
		}
	}
}

// TestOpenRefusesRemovedFormats writes data dirs holding record forms
// no shipped journal contains — the JSON-only events op, a video
// record without a content hash, a snapshot video without one, an
// import record with a catch-up tail — and requires Open to fail
// naming the op, video or key rather than load a partial state.
func TestOpenRefusesRemovedFormats(t *testing.T) {
	const campaign = `{"op":"campaign","id":"c1","name":"old","kind":"timeline"}`
	cases := []struct {
		name     string
		records  []string
		snapshot string // written after records when set
		want     string
	}{
		{
			name:    "events-op",
			records: []string{campaign, `{"op":"events","id":"s2","batch":{"video_id":"v1","plays":1}}`},
			want:    `unknown journal op "events"`,
		},
		{
			name:    "video-without-hash",
			records: []string{campaign, `{"op":"video","id":"v2","campaign":"c1","data":"RVlWMQ=="}`},
			want:    "video v2 record has no content hash",
		},
		{
			name:     "snapshot-video-without-hash",
			records:  []string{campaign},
			snapshot: `{"next_id":2,"campaigns":[{"id":"c1","name":"old","kind":"timeline","videos":["v2"]}],"videos":[{"id":"v2","campaign":"c1","data":"RVlWMQ=="}]}`,
			want:     "snapshot video v2 has no content hash",
		},
		{
			name: "import-with-tail",
			records: []string{`{"op":"import","state":{"campaign":{"id":"c9","name":"moved","kind":"timeline"}},` +
				`"tail":["eyJvcCI6InNlc3Npb24ifQ=="]}`},
			want: `import record carries a "tail" key`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			jl, err := store.Open(dir, store.Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, rec := range tc.records {
				if _, err := jl.Append([]byte(rec)); err != nil {
					t.Fatal(err)
				}
			}
			if tc.snapshot != "" {
				if err := jl.WriteSnapshot([]byte(tc.snapshot)); err != nil {
					t.Fatal(err)
				}
			}
			if err := jl.Close(); err != nil {
				t.Fatal(err)
			}
			srv, err := Open(Options{DataDir: dir})
			if err == nil {
				srv.Close()
				t.Fatal("Open accepted a removed record form")
			}
			if srv != nil {
				t.Fatal("Open returned a server alongside its error")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Open error %q does not name %q", err, tc.want)
			}
		})
	}
}
