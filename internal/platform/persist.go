// Persistence: the journal event schema, the apply functions shared by
// live handlers and crash recovery, and the snapshot encode/decode.
//
// Every mutation is expressed as an event. The live path validates,
// buffers the event into the journal, and applies it inside one
// shard-locked critical section — journal sequence order therefore
// always matches memory order — but the durability wait (the fsync, or
// the group-commit flush window that amortizes it) happens in mutate
// AFTER the shard locks are released, so concurrent mutations on one
// shard never serialize behind the disk. Recovery replays the journal
// through the same apply functions, so the rebuilt state is
// field-for-field the state the journal order produced — including the
// order records accumulate per campaign, which is what makes /results
// byte-identical after a restart (float aggregation is
// order-sensitive).
//
// The relaxation this buys is bounded and standard for group commit: a
// mutation is visible to readers between its in-memory apply and its
// ack, so a crash in that window can lose state another request
// already observed — but never state whose mutator was acked (with
// Fsync the HTTP response is written only after the record is on
// disk). A durability-wait failure latches the journal: the mutation
// stays applied in memory, the client gets a 5xx, and every further
// mutation fails until the operator restarts onto the recovered state.
package platform

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"github.com/eyeorg/eyeorg/internal/adaptive"
	"github.com/eyeorg/eyeorg/internal/quality"
	"github.com/eyeorg/eyeorg/internal/store"
	"github.com/eyeorg/eyeorg/internal/survey"
	"github.com/eyeorg/eyeorg/internal/trace"
	"github.com/eyeorg/eyeorg/internal/wire"
)

// Journal event opcodes, one per mutation.
const (
	opCampaign = "campaign"
	opVideo    = "video"
	opSession  = "session"
	opBatch    = "batch"
	opResponse = "response"
	opFlag     = "flag"
	// opHandoff fences a campaign that moved to another cluster node;
	// opImport installs a campaign received from one (export snapshot +
	// journal tail in a single record, so a replayed journal either has
	// the whole campaign or none of it).
	opHandoff = "handoff"
	opImport  = "import"
)

// event is one journaled mutation. ID is the entity the op targets
// (campaign, video or session by op).
//
// Video records carry a content address (Hash + Size) into the blob
// store: the blob file is made durable before the record referencing
// it is journaled, so replay always finds the bytes. A video record
// without a hash is refused.
type event struct {
	Op       string         `json:"op"`
	ID       string         `json:"id,omitempty"`
	Campaign string         `json:"campaign,omitempty"`
	Name     string         `json:"name,omitempty"`
	Kind     string         `json:"kind,omitempty"`
	Hash     string         `json:"hash,omitempty"`
	Size     int64          `json:"size,omitempty"`
	Worker   *Worker        `json:"worker,omitempty"`
	Tests    []AssignedTest `json:"tests,omitempty"`
	Body     *ResponseBody  `json:"body,omitempty"`
	Flagger  string         `json:"flagger,omitempty"`
	// Wire is an opBatch record's EYB1 payload: the bytes a binary
	// batch arrived as, or journal's encoding of a JSON body's records.
	// Replay decodes it back through the pooled decoder.
	Wire []byte `json:"wire,omitempty"`
	// Target is an opHandoff record's destination node; State is an
	// opImport record's campaignExport document.
	Target string          `json:"target,omitempty"`
	State  json.RawMessage `json:"state,omitempty"`
	// RemovedTail only detects the catch-up tail earlier import records
	// carried: replay refuses such a record rather than silently drop
	// the mutations inside it. Nothing journals it.
	RemovedTail json.RawMessage `json:"tail,omitempty"`

	// tr stamps the live request's lock-wait/append boundaries as the
	// event moves through its apply function. Unexported so it never
	// reaches the journal; nil during replay and when tracing is off.
	tr *trace.Trace
	// records carries an opBatch's records: the live handler's decode
	// or conversion, or replayBatch's decode of Wire.
	records []wire.Record
}

// journal buffers ev into the WAL and returns its sequence number.
// Callers hold the shard lock that orders the mutation, so journal
// order always matches memory order — but durability is NOT awaited
// here: mutate calls WaitDurable on the returned sequence after the
// shard locks are released, so an fsync (or a group-commit flush
// window) never serializes a shard. Returns 0 in memory mode and
// during replay.
//
// A JSON /events batch arrives without wire bytes; it journals as the
// EYB1 encoding of its records, made by a pooled encoder only here,
// where a log exists to take it.
func (s *Server) journal(ev *event) (uint64, error) {
	if s.log == nil || s.replaying {
		return 0, nil
	}
	var enc *wire.Encoder
	if ev.Op == opBatch && ev.Wire == nil {
		enc = wire.GetEncoder()
		ev.Wire = enc.Encode(ev.records)
	}
	buf, err := json.Marshal(ev)
	if enc != nil {
		ev.Wire = nil
		wire.PutEncoder(enc)
	}
	if err != nil {
		return 0, err
	}
	seq, err := s.log.AppendAsync(buf)
	ev.tr.Mark(trace.StageAppend)
	return seq, err
}

// applyEvent dispatches one replayed journal record.
func (s *Server) applyEvent(ev *event) error {
	switch ev.Op {
	case opCampaign:
		_, err := s.applyCampaign(ev)
		return err
	case opVideo:
		_, err := s.applyVideo(ev)
		return err
	case opSession:
		_, err := s.applySession(ev)
		return err
	case opBatch:
		return s.replayBatch(ev)
	case opResponse:
		_, _, err := s.applyResponse(ev)
		return err
	case opFlag:
		_, _, _, err := s.applyFlag(ev)
		return err
	case opHandoff:
		_, err := s.applyHandoff(ev)
		return err
	case opImport:
		_, err := s.applyImport(ev)
		return err
	default:
		return fmt.Errorf("unknown journal op %q", ev.Op)
	}
}

// campaignMoved is the lock-free fencing check session- and video-
// scoped mutations run before journaling: once a campaign is handed
// off, nothing may double-apply on the old owner.
func (s *Server) campaignMoved(campaign string) error {
	if t, ok := s.moved.Load(campaign); ok {
		return fmt.Errorf("%w: campaign %s now owned by %s", errCampaignMoved, campaign, t)
	}
	return nil
}

// --- apply functions (journal + mutate under shard locks) ---
//
// Each returns the journal sequence its record was buffered at (0 in
// memory mode / replay); mutate awaits that sequence's durability after
// every shard lock is back on the hook.

func (s *Server) applyCampaign(ev *event) (uint64, error) {
	csh := s.campaigns.Shard(ev.ID)
	csh.Lock()
	defer csh.Unlock()
	ev.tr.Mark(trace.StageLockWait)
	if _, exists := csh.Get(ev.ID); exists {
		return 0, errCampaignExists
	}
	seq, err := s.journal(ev)
	if err != nil {
		return 0, err
	}
	c := &campaignState{ID: ev.ID, Name: ev.Name, Kind: ev.Kind, analytics: quality.NewCampaign(ev.Kind)}
	if s.adaptive {
		c.adaptive = adaptive.New(ev.Kind, s.adaptiveCfg)
	}
	csh.Put(ev.ID, c)
	s.bumpID(ev.ID)
	s.countMutation(opCampaign)
	return seq, nil
}

func (s *Server) applyVideo(ev *event) (uint64, error) {
	if ev.Hash == "" {
		return 0, fmt.Errorf("video %s record has no content hash", ev.ID)
	}
	csh := s.campaigns.Shard(ev.Campaign)
	csh.Lock()
	defer csh.Unlock()
	c, ok := csh.Get(ev.Campaign)
	if !ok {
		return 0, errNoCampaign
	}
	if c.movedTo != "" {
		return 0, fmt.Errorf("%w: campaign %s now owned by %s", errCampaignMoved, c.ID, c.movedTo)
	}
	vsh := s.videos.Shard(ev.ID)
	vsh.Lock()
	defer vsh.Unlock()
	ev.tr.Mark(trace.StageLockWait)
	seq, err := s.journal(ev)
	if err != nil {
		return 0, err
	}
	vsh.Put(ev.ID, newVideoState(ev.ID, ev.Campaign, ev.Hash, ev.Size))
	c.Videos = append(c.Videos, ev.ID)
	if c.adaptive != nil {
		c.adaptive.AddVideo(ev.ID)
	}
	c.invalidate()
	s.bumpID(ev.ID)
	s.countMutation(opVideo)
	return seq, nil
}

func (s *Server) applySession(ev *event) (uint64, error) {
	ssh := s.sessions.Shard(ev.ID)
	ssh.Lock()
	defer ssh.Unlock()
	// The campaign tracks its sessions for live analytics; session locks
	// nest over campaign locks (same order as applyResponse).
	csh := s.campaigns.Shard(ev.Campaign)
	csh.Lock()
	defer csh.Unlock()
	ev.tr.Mark(trace.StageLockWait)
	if c, ok := csh.Get(ev.Campaign); ok && c.movedTo != "" {
		return 0, fmt.Errorf("%w: campaign %s now owned by %s", errCampaignMoved, c.ID, c.movedTo)
	}
	seq, err := s.journal(ev)
	if err != nil {
		return 0, err
	}
	ssh.Put(ev.ID, &sessionState{
		ID:         ev.ID,
		Campaign:   ev.Campaign,
		Worker:     *ev.Worker,
		Assignment: ev.Tests,
		traces:     map[string]*survey.VideoTrace{},
		answered:   map[string]bool{},
		track:      quality.NewTracker(assignedVideos(ev.Tests)),
	})
	if c, ok := csh.Get(ev.Campaign); ok {
		c.sessions = append(c.sessions, ev.ID)
		// The allocator charges the assignment as bought budget the
		// moment it is journaled — live and replay go through this same
		// line, so pending counts replay identically.
		if c.adaptive != nil {
			c.adaptive.NoteJoin(assignedVideos(ev.Tests))
		}
	}
	s.joined.Add(1)
	s.bumpID(ev.ID)
	s.countMutation(opSession)
	return seq, nil
}

// assignedVideos flattens an assignment to one video ID per test, the
// multiplicity-aware shape the quality tracker weights counters by.
func assignedVideos(tests []AssignedTest) []string {
	vids := make([]string, len(tests))
	for i, t := range tests {
		vids[i] = t.VideoID
	}
	return vids
}

// replayBatch decodes a journaled opBatch record's wire bytes through
// the pooled decoder and applies them.
func (s *Server) replayBatch(ev *event) error {
	dec := wire.GetDecoder()
	defer wire.PutDecoder(dec)
	recs, err := dec.Decode(ev.Wire)
	if err != nil {
		return fmt.Errorf("batch payload: %w", err)
	}
	ev.records = recs
	_, err = s.applyBatch(ev)
	return err
}

// applyBatch applies ev.records, the instruction and engagement
// records of one /events request in either encoding: every record
// lands under a single session-shard lock acquisition, and the whole
// batch is one journal record, so a replayed journal either carries
// all of a batch or none of it.
func (s *Server) applyBatch(ev *event) (uint64, error) {
	ssh := s.sessions.Shard(ev.ID)
	ssh.Lock()
	defer ssh.Unlock()
	ev.tr.Mark(trace.StageLockWait)
	sess, ok := ssh.Get(ev.ID)
	if !ok {
		return 0, errNoSession
	}
	// A completed session's record is already materialized; accepting
	// more instrumentation would silently diverge from it.
	if sess.completed {
		return 0, errSessionDone
	}
	if err := s.campaignMoved(sess.Campaign); err != nil {
		return 0, err
	}
	seq, err := s.journal(ev)
	if err != nil {
		return 0, err
	}
	for i := range ev.records {
		applyWireRecord(sess, &ev.records[i])
	}
	s.countMutation(opBatch)
	return seq, nil
}

func (s *Server) applyResponse(ev *event) (seq uint64, done bool, err error) {
	ssh := s.sessions.Shard(ev.ID)
	ssh.Lock()
	defer ssh.Unlock()
	sess, ok := ssh.Get(ev.ID)
	if !ok {
		return 0, false, errNoSession
	}
	assigned, choice, err := validateResponse(sess, ev.Body)
	if err != nil {
		return 0, false, err
	}
	if err := s.campaignMoved(sess.Campaign); err != nil {
		return 0, false, err
	}
	// When this answer completes the session, the campaign shard lock
	// must span journaling and the record append: two sessions
	// completing on one campaign journal in the same order their
	// records land, so replay reproduces the record order exactly.
	willComplete := !sess.completed && len(sess.timeline)+len(sess.ab)+1 >= len(sess.Assignment)
	var csh *store.Shard[*campaignState]
	if willComplete {
		csh = s.campaigns.Shard(sess.Campaign)
		csh.Lock()
		defer csh.Unlock()
	}
	ev.tr.Mark(trace.StageLockWait)
	seq, err = s.journal(ev)
	if err != nil {
		return 0, false, err
	}
	storeResponse(sess, assigned, choice, ev.Body)
	sess.answered[ev.Body.TestID] = true
	if assigned.Kind == "ab" {
		sess.track.AddAB(sess.ab[len(sess.ab)-1])
	} else {
		sess.track.AddTimeline(sess.timeline[len(sess.timeline)-1])
	}
	done = len(sess.timeline)+len(sess.ab) >= len(sess.Assignment)
	if done && !sess.completed && csh != nil {
		sess.completed = true
		sess.track.SetCompleted()
		s.completedN.Add(1)
		if c, ok := csh.Get(sess.Campaign); ok {
			rec := sess.record()
			c.recordSessions = append(c.recordSessions, sess.ID)
			c.analytics.Complete(rec, sess.track.Verdict(0))
			if c.adaptive != nil {
				c.adaptive.Complete(rec, sess.track.Verdict(0))
			}
			c.invalidate()
		}
	}
	s.countMutation(opResponse)
	return seq, done, nil
}

func (s *Server) applyFlag(ev *event) (seq uint64, flags int, banned bool, err error) {
	vsh := s.videos.Shard(ev.ID)
	vsh.Lock()
	ev.tr.Mark(trace.StageLockWait)
	v, ok := vsh.Get(ev.ID)
	if !ok {
		vsh.Unlock()
		return 0, 0, false, errNoVideo
	}
	if err := s.campaignMoved(v.Campaign); err != nil {
		vsh.Unlock()
		return 0, 0, false, err
	}
	seq, err = s.journal(ev)
	if err != nil {
		vsh.Unlock()
		return 0, 0, false, err
	}
	v.Flags[ev.Flagger] = true
	flags = len(v.Flags)
	newlyBanned := !v.Banned && flags >= BanThreshold
	if newlyBanned {
		v.Banned = true
	}
	banned = v.Banned
	campaign := v.Campaign
	vsh.Unlock()
	if newlyBanned {
		// A ban changes the Banned bit in /results: drop the cache.
		// Taken after the video lock is released — campaign locks nest
		// over video locks elsewhere, never under them.
		csh := s.campaigns.Shard(campaign)
		csh.Lock()
		if c, ok := csh.Get(campaign); ok {
			c.invalidate()
		}
		csh.Unlock()
	}
	s.countMutation(opFlag)
	return seq, flags, banned, nil
}

// validateResponse resolves the answered test and rejects duplicates
// and malformed A/B choices before anything is journaled.
func validateResponse(sess *sessionState, body *ResponseBody) (*AssignedTest, survey.ABChoice, error) {
	var assigned *AssignedTest
	for i := range sess.Assignment {
		if sess.Assignment[i].TestID == body.TestID {
			assigned = &sess.Assignment[i]
			break
		}
	}
	if assigned == nil {
		return nil, 0, errUnknownTest
	}
	if sess.answered[body.TestID] {
		return nil, 0, errDuplicateTest
	}
	var choice survey.ABChoice
	if assigned.Kind == "ab" {
		// Hard rule: one of the three answers must be present (§3.3).
		switch body.Choice {
		case "left":
			choice = survey.ChoiceLeft
		case "right":
			choice = survey.ChoiceRight
		case "no difference":
			choice = survey.ChoiceNoDifference
		default:
			return nil, 0, errBadChoice
		}
	}
	return assigned, choice, nil
}

// storeResponse records a validated answer on the session.
func storeResponse(sess *sessionState, assigned *AssignedTest, choice survey.ABChoice, body *ResponseBody) {
	trace := survey.VideoTrace{VideoID: assigned.VideoID}
	if tr, ok := sess.traces[assigned.VideoID]; ok {
		trace = *tr
	}
	switch assigned.Kind {
	case "ab":
		sess.ab = append(sess.ab, &survey.ABResponse{
			VideoID: assigned.VideoID,
			Choice:  choice,
			AOnLeft: true,
			Control: assigned.Control,
			// The platform's A/B controls delay the right side.
			ControlPassed: !assigned.Control || choice != survey.ChoiceRight,
			Trace:         trace,
		})
	default: // "timeline"
		sess.timeline = append(sess.timeline, &survey.TimelineResponse{
			VideoID:        assigned.VideoID,
			Slider:         time.Duration(body.SliderMs * float64(time.Millisecond)),
			Helper:         time.Duration(body.HelperMs * float64(time.Millisecond)),
			Submitted:      time.Duration(body.SubmittedMs * float64(time.Millisecond)),
			AcceptedHelper: body.AcceptedHelper,
			Control:        assigned.Control,
			// The control helper frame is deliberately wrong: keeping
			// the original choice passes (§3.3).
			ControlPassed: !assigned.Control || body.KeptOriginal,
			Trace:         trace,
		})
	}
}

// --- snapshots ---

// The snapshot is a JSON document of plain DTOs. Session records are
// NOT serialized: they are a pure function of completed session state,
// so campaigns store the completion-ordered session IDs and records are
// rebuilt on load, keeping the snapshot small and the rebuild exact.

type snapState struct {
	NextID    int64           `json:"next_id"`
	Joined    int64           `json:"joined"`
	Campaigns []*snapCampaign `json:"campaigns,omitempty"`
	Sessions  []*snapSession  `json:"sessions,omitempty"`
	Videos    []*snapVideo    `json:"videos,omitempty"`
}

type snapCampaign struct {
	ID       string   `json:"id"`
	Name     string   `json:"name"`
	Kind     string   `json:"kind"`
	Videos   []string `json:"videos,omitempty"`
	Records  []string `json:"records,omitempty"`  // session IDs, completion order
	Sessions []string `json:"sessions,omitempty"` // session IDs, join order
	Moved    string   `json:"moved,omitempty"`    // node the campaign was handed off to
}

type snapSession struct {
	ID            string                        `json:"id"`
	Campaign      string                        `json:"campaign"`
	Worker        Worker                        `json:"worker"`
	Tests         []AssignedTest                `json:"tests"`
	Traces        map[string]*survey.VideoTrace `json:"traces,omitempty"`
	InstructionNs int64                         `json:"instruction_ns,omitempty"`
	Timeline      []*survey.TimelineResponse    `json:"timeline,omitempty"`
	AB            []*survey.ABResponse          `json:"ab,omitempty"`
	Answered      []string                      `json:"answered,omitempty"`
	Completed     bool                          `json:"completed,omitempty"`
}

// snapVideo references its payload by content address; the blob file is
// durable independently of the snapshot.
type snapVideo struct {
	ID       string   `json:"id"`
	Campaign string   `json:"campaign"`
	Hash     string   `json:"hash,omitempty"`
	Size     int64    `json:"size,omitempty"`
	Flags    []string `json:"flags,omitempty"`
	Banned   bool     `json:"banned,omitempty"`
}

func sortedKeys(m map[string]bool) []string {
	if len(m) == 0 {
		return nil
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// exportCampaignState, exportSessionState and exportVideoState turn
// live state into snapshot DTOs; marshalState and ExportCampaign share
// them. Callers hold the world lock (exclusively), so reads are a
// consistent cut.
func exportCampaignState(c *campaignState) *snapCampaign {
	return &snapCampaign{
		ID: c.ID, Name: c.Name, Kind: c.Kind,
		Videos:   c.Videos,
		Records:  c.recordSessions,
		Sessions: c.sessions,
		Moved:    c.movedTo,
	}
}

func exportSessionState(sess *sessionState) *snapSession {
	return &snapSession{
		ID:            sess.ID,
		Campaign:      sess.Campaign,
		Worker:        sess.Worker,
		Tests:         sess.Assignment,
		Traces:        sess.traces,
		InstructionNs: int64(sess.instruction),
		Timeline:      sess.timeline,
		AB:            sess.ab,
		Answered:      sortedKeys(sess.answered),
		Completed:     sess.completed,
	}
}

func exportVideoState(v *videoState) *snapVideo {
	return &snapVideo{
		ID: v.ID, Campaign: v.Campaign, Hash: v.Hash, Size: v.Size,
		Flags: sortedKeys(v.Flags), Banned: v.Banned,
	}
}

// marshalState serializes the full platform state. Caller holds the
// world lock exclusively, so shard-by-shard iteration is a consistent
// cut.
func (s *Server) marshalState() ([]byte, error) {
	st := snapState{NextID: s.nextID.Load(), Joined: s.joined.Load()}
	s.campaigns.Range(func(_ string, c *campaignState) bool {
		st.Campaigns = append(st.Campaigns, exportCampaignState(c))
		return true
	})
	s.sessions.Range(func(_ string, sess *sessionState) bool {
		st.Sessions = append(st.Sessions, exportSessionState(sess))
		return true
	})
	s.videos.Range(func(_ string, v *videoState) bool {
		st.Videos = append(st.Videos, exportVideoState(v))
		return true
	})
	sort.Slice(st.Campaigns, func(i, j int) bool { return st.Campaigns[i].ID < st.Campaigns[j].ID })
	sort.Slice(st.Sessions, func(i, j int) bool { return st.Sessions[i].ID < st.Sessions[j].ID })
	sort.Slice(st.Videos, func(i, j int) bool { return st.Videos[i].ID < st.Videos[j].ID })
	return json.Marshal(&st)
}

// restoreSession rebuilds one session from its DTO — including the
// re-fed quality tracker and the completed counter. loadState and
// applyImport share it so a migrated session is field-for-field the
// session a local replay would have produced.
func (s *Server) restoreSession(sn *snapSession) *sessionState {
	sess := &sessionState{
		ID:          sn.ID,
		Campaign:    sn.Campaign,
		Worker:      sn.Worker,
		Assignment:  sn.Tests,
		traces:      sn.Traces,
		instruction: time.Duration(sn.InstructionNs),
		timeline:    sn.Timeline,
		ab:          sn.AB,
		answered:    make(map[string]bool, len(sn.Answered)),
		completed:   sn.Completed,
		track:       quality.NewTracker(assignedVideos(sn.Tests)),
	}
	if sess.traces == nil {
		sess.traces = map[string]*survey.VideoTrace{}
	}
	for _, id := range sn.Answered {
		sess.answered[id] = true
	}
	// Re-feed the tracker from the recovered session state. The
	// tracker is a pure function of the latest per-video traces and
	// the response list, both order-independent here, so map
	// iteration order cannot diverge the rebuild.
	for _, tr := range sess.traces {
		sess.track.Observe(*tr)
	}
	for _, r := range sess.timeline {
		sess.track.AddTimeline(r)
	}
	for _, r := range sess.ab {
		sess.track.AddAB(r)
	}
	if sess.completed {
		sess.track.SetCompleted()
		s.completedN.Add(1)
	}
	return sess
}

// restoreVideo rebuilds one video from its DTO after checking that the
// blob it references is present.
func (s *Server) restoreVideo(vn *snapVideo) (*videoState, error) {
	if vn.Hash == "" {
		return nil, fmt.Errorf("snapshot video %s has no content hash", vn.ID)
	}
	if !s.blobs.Has(vn.Hash) {
		return nil, fmt.Errorf("snapshot video %s references missing blob %s", vn.ID, vn.Hash)
	}
	v := newVideoState(vn.ID, vn.Campaign, vn.Hash, vn.Size)
	v.Banned = vn.Banned
	for _, worker := range vn.Flags {
		v.Flags[worker] = true
	}
	return v, nil
}

// restoreCampaign rebuilds one campaign from its DTO. The referenced
// sessions must already be present in the sessions index.
func (s *Server) restoreCampaign(cn *snapCampaign) (*campaignState, error) {
	c := &campaignState{
		ID: cn.ID, Name: cn.Name, Kind: cn.Kind,
		Videos:         cn.Videos,
		recordSessions: cn.Records,
		sessions:       cn.Sessions,
		analytics:      quality.NewCampaign(cn.Kind),
		movedTo:        cn.Moved,
	}
	if cn.Moved != "" {
		s.moved.Store(cn.ID, cn.Moved)
	}
	// Adaptive state is never snapshotted: it is a pure fold over
	// (videos, joins, completions) under a fixed config, so it is
	// re-derived here exactly as the live path derived it — the
	// crash-replay determinism contract.
	if s.adaptive {
		c.adaptive = adaptive.New(cn.Kind, s.adaptiveCfg)
		for _, vid := range cn.Videos {
			c.adaptive.AddVideo(vid)
		}
		for _, sid := range cn.Sessions {
			sess, ok := s.sessions.Get(sid)
			if !ok {
				return nil, fmt.Errorf("snapshot campaign %s references unknown session %s", cn.ID, sid)
			}
			c.adaptive.NoteJoin(assignedVideos(sess.Assignment))
		}
	}
	// Completed sessions re-fold into the analytics in recorded
	// completion order — the order the journal produced them and the
	// order filtering.Clean would walk them.
	for _, sid := range cn.Records {
		sess, ok := s.sessions.Get(sid)
		if !ok {
			return nil, fmt.Errorf("snapshot campaign %s references unknown session %s", cn.ID, sid)
		}
		rec := sess.record()
		c.analytics.Complete(rec, sess.track.Verdict(0))
		if c.adaptive != nil {
			c.adaptive.Complete(rec, sess.track.Verdict(0))
		}
	}
	return c, nil
}

// loadState rebuilds the indexes from a snapshot. Runs before the
// server accepts requests, so unlocked convenience accessors suffice.
func (s *Server) loadState(data []byte) error {
	var st snapState
	if err := json.Unmarshal(data, &st); err != nil {
		return err
	}
	s.nextID.Store(st.NextID)
	s.joined.Store(st.Joined)
	for _, sn := range st.Sessions {
		s.sessions.Put(sn.ID, s.restoreSession(sn))
	}
	for _, vn := range st.Videos {
		v, err := s.restoreVideo(vn)
		if err != nil {
			return err
		}
		s.videos.Put(vn.ID, v)
	}
	for _, cn := range st.Campaigns {
		c, err := s.restoreCampaign(cn)
		if err != nil {
			return err
		}
		s.campaigns.Put(cn.ID, c)
	}
	return nil
}
