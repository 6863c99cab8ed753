// Fuzz targets for the HTTP JSON bodies of the ingest endpoints. The
// platform faces the open internet in the paper's deployment, so no
// body — however malformed — may panic a handler, produce a 5xx, or
// answer with something other than JSON. Each target drives the real
// handler stack against a pre-seeded in-memory server.
package platform

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/eyeorg/eyeorg/internal/wire"
)

type fuzzEnv struct {
	handler  http.Handler
	campaign string
	video    string
	session  string
}

// newFuzzEnv seeds one campaign, one video and one joined session on an
// in-memory server; iterations share it (state drift across inputs is
// exactly what a public endpoint sees).
func newFuzzEnv(tb testing.TB) *fuzzEnv {
	tb.Helper()
	env := &fuzzEnv{handler: NewServer().Handler()}
	rec := env.do("POST", "/api/v1/campaigns", []byte(`{"name":"fuzz","kind":"timeline"}`))
	var created CreateCampaignResponse
	if rec.Code != http.StatusCreated || json.Unmarshal(rec.Body.Bytes(), &created) != nil {
		tb.Fatalf("seed campaign: %d %s", rec.Code, rec.Body.Bytes())
	}
	env.campaign = created.ID
	rec = env.do("POST", "/api/v1/campaigns/"+env.campaign+"/videos", sampleVideoBytes())
	var added AddVideoResponse
	if rec.Code != http.StatusCreated || json.Unmarshal(rec.Body.Bytes(), &added) != nil {
		tb.Fatalf("seed video: %d %s", rec.Code, rec.Body.Bytes())
	}
	env.video = added.ID
	rec = env.do("POST", "/api/v1/sessions",
		[]byte(`{"campaign":"`+env.campaign+`","worker":{"id":"fz"},"captcha":"tok"}`))
	var jr JoinResponse
	if rec.Code != http.StatusCreated || json.Unmarshal(rec.Body.Bytes(), &jr) != nil {
		tb.Fatalf("seed session: %d %s", rec.Code, rec.Body.Bytes())
	}
	env.session = jr.Session
	return env
}

func (env *fuzzEnv) do(method, path string, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	env.handler.ServeHTTP(rec, req)
	return rec
}

// checkSane is the shared oracle: never a 5xx, always a JSON body.
func checkSane(t *testing.T, rec *httptest.ResponseRecorder) {
	t.Helper()
	if rec.Code >= 500 {
		t.Fatalf("handler answered %d: %s", rec.Code, rec.Body.Bytes())
	}
	if !json.Valid(rec.Body.Bytes()) {
		t.Fatalf("handler answered non-JSON (status %d): %q", rec.Code, rec.Body.Bytes())
	}
}

func FuzzJoinBody(f *testing.F) {
	env := newFuzzEnv(f)
	f.Add([]byte(`{"campaign":"` + env.campaign + `","worker":{"id":"w1","gender":"f","country":"IT","source":"x"},"captcha":"tok"}`))
	f.Add([]byte(`{"campaign":"ghost","worker":{"id":"w"},"captcha":"t"}`))
	f.Add([]byte(`{"campaign":"` + env.campaign + `","worker":{"id":""},"captcha":"t"}`))
	f.Add([]byte(`{"captcha":"   "}`))
	f.Add([]byte(`{"unknown":"field"}`))
	f.Add([]byte(`{`))
	f.Add([]byte(`null`))
	f.Add([]byte{0xff, 0xfe})
	f.Fuzz(func(t *testing.T, body []byte) {
		checkSane(t, env.do("POST", "/api/v1/sessions", body))
	})
}

func FuzzEventsBody(f *testing.F) {
	env := newFuzzEnv(f)
	f.Add([]byte(`{"video_id":"` + env.video + `","load_ms":900,"time_on_video_ms":4000,"plays":1,"watched_fraction":1}`))
	f.Add([]byte(`{"instruction_ms":12000}`))
	f.Add([]byte(`{"video_id":"ghost","seeks":-3,"out_of_focus_ms":-1e300}`))
	f.Add([]byte(`{"watched_fraction":1e308,"plays":2147483647}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`{"video_id":123}`))
	// One byte past the EYB1 string cap the journal encodes under.
	f.Add([]byte(`{"video_id":"` + strings.Repeat("x", wire.MaxString+1) + `","plays":1}`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, body []byte) {
		checkSane(t, env.do("POST", "/api/v1/sessions/"+env.session+"/events", body))
		// An unknown session must stay a clean 404 for the same bytes.
		checkSane(t, env.do("POST", "/api/v1/sessions/ghost/events", body))
	})
}

func FuzzResponseBody(f *testing.F) {
	env := newFuzzEnv(f)
	f.Add([]byte(`{"test_id":"` + env.session + `-t0","slider_ms":1400,"submitted_ms":1400,"kept_original":true}`))
	f.Add([]byte(`{"test_id":"` + env.session + `-control","kept_original":true}`))
	f.Add([]byte(`{"test_id":"nope"}`))
	f.Add([]byte(`{"test_id":"` + env.session + `-t1","choice":"sideways"}`))
	f.Add([]byte(`{"choice":"left"}`))
	f.Add([]byte(`{"slider_ms":"high"}`))
	f.Add([]byte(`{}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		checkSane(t, env.do("POST", "/api/v1/sessions/"+env.session+"/responses", body))
		checkSane(t, env.do("POST", "/api/v1/sessions/ghost/responses", body))
	})
}

func FuzzFlagBody(f *testing.F) {
	env := newFuzzEnv(f)
	f.Add([]byte(`{"worker":"w1"}`))
	f.Add([]byte(`{"worker":""}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"worker":"w","extra":true}`))
	f.Add([]byte(`42`))
	f.Fuzz(func(t *testing.T, body []byte) {
		checkSane(t, env.do("POST", "/api/v1/videos/"+env.video+"/flag", body))
		checkSane(t, env.do("POST", "/api/v1/videos/ghost/flag", body))
	})
}
