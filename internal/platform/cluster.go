// Cluster support: campaign export/import (handoff between nodes) and
// handoff fencing.
//
// A campaign moves between nodes fence-first: the old owner fences the
// campaign with a journaled opHandoff — from that record on, every
// mutation gets errCampaignMoved, so nothing can double-apply on the
// old owner — then exports the now-quiescent campaign (its sessions,
// videos and blob payloads as the same DTOs snapshots use). The new
// owner installs the export in ONE journaled opImport record, so its
// own recovery replays the whole migration or none of it. Both records
// replay through the same apply functions as everything else,
// preserving the byte-identical-/results contract across migration and
// restart. Nothing here replicates a journal: each node's state is as
// durable as its own data directory.
package platform

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
)

// campaignExport is the handoff document: one campaign's full state in
// snapshot DTOs, plus the blob payloads its videos reference (the
// receiving node's blob store has never seen them).
type campaignExport struct {
	Campaign *snapCampaign     `json:"campaign"`
	Sessions []*snapSession    `json:"sessions,omitempty"`
	Videos   []*snapVideo      `json:"videos,omitempty"`
	Blobs    map[string][]byte `json:"blobs,omitempty"`
}

// ExportCampaign serializes one campaign — sessions, videos, blob
// bytes — as a handoff document. Mutations are quiesced for the
// duration (the world lock is held exclusively, so every mutation that
// passed the fencing check before a Handoff has applied); exporting a
// fenced campaign is therefore complete by construction.
func (s *Server) ExportCampaign(id string) ([]byte, error) {
	s.world.Lock()
	defer s.world.Unlock()
	c, ok := s.campaigns.Get(id)
	if !ok {
		return nil, errNoCampaign
	}
	ex := campaignExport{Campaign: exportCampaignState(c)}
	for _, sid := range c.sessions {
		sess, ok := s.sessions.Get(sid)
		if !ok {
			return nil, fmt.Errorf("campaign %s references unknown session %s", id, sid)
		}
		ex.Sessions = append(ex.Sessions, exportSessionState(sess))
	}
	for _, vid := range c.Videos {
		v, ok := s.videos.Get(vid)
		if !ok {
			return nil, fmt.Errorf("campaign %s references unknown video %s", id, vid)
		}
		ex.Videos = append(ex.Videos, exportVideoState(v))
		if ex.Blobs == nil {
			ex.Blobs = map[string][]byte{}
		}
		if _, dup := ex.Blobs[v.Hash]; !dup {
			data, err := s.blobs.ReadAll(v.Hash)
			if err != nil {
				return nil, fmt.Errorf("exporting blob %s: %w", v.Hash, err)
			}
			ex.Blobs[v.Hash] = data
		}
	}
	return json.Marshal(&ex)
}

// Handoff fences a campaign: a journaled opHandoff record marks it
// owned by target, and from that record on every mutation touching the
// campaign fails with errCampaignMoved (HTTP 409; the cluster
// middleware answers 307 to the new owner before requests get this
// far). The fence survives restart — it replays like any mutation.
func (s *Server) Handoff(campaign, target string) error {
	ev := &event{Op: opHandoff, ID: campaign, Target: target}
	return s.mutate(nil, func() (uint64, error) { return s.applyHandoff(ev) })
}

func (s *Server) applyHandoff(ev *event) (uint64, error) {
	csh := s.campaigns.Shard(ev.ID)
	csh.Lock()
	defer csh.Unlock()
	c, ok := csh.Get(ev.ID)
	if !ok {
		return 0, errNoCampaign
	}
	if c.movedTo != "" {
		return 0, fmt.Errorf("%w: campaign %s now owned by %s", errCampaignMoved, c.ID, c.movedTo)
	}
	seq, err := s.journal(ev)
	if err != nil {
		return 0, err
	}
	c.movedTo = ev.Target
	s.moved.Store(ev.ID, ev.Target)
	s.countMutation(opHandoff)
	return seq, nil
}

// ImportCampaign installs a campaign exported from another node as ONE
// journaled opImport record, so recovery replays the whole migration
// atomically. Importing an already-present campaign fails with
// errCampaignExists — the retry/double-apply guard.
func (s *Server) ImportCampaign(state []byte) error {
	ev := &event{Op: opImport, State: state}
	s.world.Lock()
	seq, err := s.applyImport(ev)
	s.world.Unlock()
	if err != nil {
		return err
	}
	if seq != 0 {
		if err := s.log.WaitDurable(seq); err != nil {
			return err
		}
	}
	s.maybeSnapshot()
	return nil
}

func (s *Server) applyImport(ev *event) (uint64, error) {
	if ev.RemovedTail != nil {
		return 0, errors.New(`import record carries a "tail" key: the catch-up tail form was removed, refusing to drop its records`)
	}
	var ex campaignExport
	if err := json.Unmarshal(ev.State, &ex); err != nil {
		return 0, fmt.Errorf("import state: %w", err)
	}
	if ex.Campaign == nil {
		return 0, fmt.Errorf("import state: missing campaign")
	}
	if _, exists := s.campaigns.Get(ex.Campaign.ID); exists {
		return 0, errCampaignExists
	}
	seq, err := s.journal(ev)
	if err != nil {
		return 0, err
	}
	// Blob payloads first: video DTOs reference them by content address.
	for hash, data := range ex.Blobs {
		if s.blobs.Has(hash) {
			continue
		}
		if _, _, err := s.blobs.PutBytes(data); err != nil {
			return 0, fmt.Errorf("import blob %s: %w", hash, err)
		}
	}
	// Same rebuild order as loadState: sessions, then videos, then the
	// campaign whose adaptive/analytics state re-folds over them.
	for _, sn := range ex.Sessions {
		s.sessions.Put(sn.ID, s.restoreSession(sn))
		s.joined.Add(1)
		s.bumpID(sn.ID)
	}
	for _, vn := range ex.Videos {
		v, err := s.restoreVideo(vn)
		if err != nil {
			return 0, fmt.Errorf("import video %s: %w", vn.ID, err)
		}
		s.videos.Put(vn.ID, v)
		s.bumpID(vn.ID)
	}
	// The import always lands owned-here: the export's moved marker is
	// the OLD owner's fence (it exports after fencing), not the new
	// one's.
	ex.Campaign.Moved = ""
	c, err := s.restoreCampaign(ex.Campaign)
	if err != nil {
		return 0, fmt.Errorf("import campaign %s: %w", ex.Campaign.ID, err)
	}
	s.campaigns.Put(ex.Campaign.ID, c)
	s.bumpID(ex.Campaign.ID)
	s.countMutation(opImport)
	return seq, nil
}

// --- ownership accessors (read paths for the cluster middleware) ---

// HasCampaign reports whether the campaign exists on this node
// (including fenced, handed-off campaigns).
func (s *Server) HasCampaign(id string) bool {
	_, ok := s.campaigns.Get(id)
	return ok
}

// CampaignOf resolves a session ID to its campaign.
func (s *Server) CampaignOf(sessionID string) (string, bool) {
	sess, ok := s.sessions.Get(sessionID)
	if !ok {
		return "", false
	}
	return sess.Campaign, true
}

// CampaignOfVideo resolves a video ID to its campaign.
func (s *Server) CampaignOfVideo(videoID string) (string, bool) {
	v, ok := s.videos.Get(videoID)
	if !ok {
		return "", false
	}
	return v.Campaign, true
}

// CampaignIDs lists every campaign on this node, sorted.
func (s *Server) CampaignIDs() []string {
	var ids []string
	s.campaigns.Range(func(id string, _ *campaignState) bool {
		ids = append(ids, id)
		return true
	})
	sort.Strings(ids)
	return ids
}

// MovedTo reports where a handed-off campaign now lives ("" and false
// while locally owned).
func (s *Server) MovedTo(campaign string) (string, bool) {
	t, ok := s.moved.Load(campaign)
	if !ok {
		return "", false
	}
	return t.(string), true
}
