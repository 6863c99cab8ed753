// Event ingest: POST /api/v1/sessions/{id}/events in both encodings.
//
// Content-type negotiation picks the decoder: application/x-eyeorg-batch
// bodies carry a whole session's buffered interactions in one
// length-prefixed binary batch (see internal/wire); anything else is
// one JSON EventBatch, which AppendWireRecords converts to the same
// wire records. Both then take one path: one opBatch journal record
// (the EYB1 bytes; journal encodes a JSON body's records), group commit,
// and applyBatch, which applies every record under ONE session-shard
// lock acquisition. Admission charges a binary batch's worker token
// bucket per decoded record, so a 500-event batch costs 500 tokens,
// not 1; a JSON body costs its request's one token.
//
// The differential suite (differential_test.go) holds the two
// encodings to byte-identical /results and /analytics, including
// across crash+replay.
package platform

import (
	"fmt"
	"net/http"
	"strings"
	"time"

	"github.com/eyeorg/eyeorg/internal/survey"
	"github.com/eyeorg/eyeorg/internal/trace"
	"github.com/eyeorg/eyeorg/internal/wire"
)

// defaultMaxBatchRecords caps one binary batch when
// Options.MaxBatchRecords is zero.
const defaultMaxBatchRecords = 4096

// isWireBatch reports whether the request negotiated the binary batch
// encoding (media-type parameters tolerated).
func isWireBatch(r *http.Request) bool {
	ct := r.Header.Get("Content-Type")
	return ct == wire.ContentType || strings.HasPrefix(ct, wire.ContentType+";")
}

// AppendWireRecords converts one JSON-shaped EventBatch into its wire
// records and appends them to dst: an instruction record when the
// batch sets InstructionMs, an engagement record when it names a
// video. The JSON handler ingests through it, so a batch posted in
// either encoding lands identical durations. Shared with
// cmd/loadgen's binary client mode and the differential suite.
func AppendWireRecords(dst []wire.Record, b EventBatch) []wire.Record {
	if b.InstructionMs > 0 {
		dst = append(dst, wire.Record{
			Kind:          wire.KindInstruction,
			InstructionNs: int64(time.Duration(b.InstructionMs * float64(time.Millisecond))),
		})
	}
	if b.VideoID != "" {
		dst = append(dst, wire.Record{
			Kind:            wire.KindEngagement,
			VideoID:         b.VideoID,
			LoadNs:          int64(time.Duration(b.LoadMs * float64(time.Millisecond))),
			TimeOnVideoNs:   int64(time.Duration(b.TimeOnVideoMs * float64(time.Millisecond))),
			OutOfFocusNs:    int64(time.Duration(b.OutOfFocusMs * float64(time.Millisecond))),
			Plays:           b.Plays,
			Pauses:          b.Pauses,
			Seeks:           b.Seeks,
			WatchedFraction: b.WatchedFraction,
		})
	}
	return dst
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	// Content-type negotiation: an EYB1 binary batch takes the pooled
	// zero-alloc decode path; everything else is the JSON surface.
	if isWireBatch(r) {
		s.handleEventsBinary(w, r)
		return
	}
	tr := requestTrace(w)
	tr.Mark(trace.StageReceive)
	id := r.PathValue("id")
	tr.SetSession(id)
	var batch EventBatch
	if err := s.readJSON(w, r, &batch); err != nil {
		s.writeBodyErr(w, err, err.Error())
		return
	}
	tr.Mark(trace.StageDecode)
	// The body journals as EYB1, whose decoder refuses a longer ID: an
	// acked record must replay.
	if len(batch.VideoID) > wire.MaxString {
		writeErr(w, http.StatusBadRequest, fmt.Sprintf("video_id exceeds %d bytes", wire.MaxString))
		return
	}
	ev := &event{Op: opBatch, ID: id, records: AppendWireRecords(nil, batch), tr: tr}
	if err := s.mutate(tr, func() (uint64, error) { return s.applyBatch(ev) }); err != nil {
		writeErr(w, statusFor(err), err.Error())
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]string{"status": "recorded"})
}

// applyWireRecord folds one decoded record into a session. Caller
// holds the session's shard lock.
func applyWireRecord(sess *sessionState, r *wire.Record) {
	switch r.Kind {
	case wire.KindInstruction:
		sess.instruction = time.Duration(r.InstructionNs)
	case wire.KindEngagement:
		t := survey.VideoTrace{
			VideoID:         r.VideoID,
			LoadTime:        time.Duration(r.LoadNs),
			TimeOnVideo:     time.Duration(r.TimeOnVideoNs),
			Plays:           r.Plays,
			Pauses:          r.Pauses,
			Seeks:           r.Seeks,
			WatchedFraction: r.WatchedFraction,
			OutOfFocus:      time.Duration(r.OutOfFocusNs),
		}
		sess.traces[r.VideoID] = &t
		sess.track.Observe(t)
	}
}

// handleEventsBinary ingests one EYB1 batch. The pooled decoder reads
// the capped body into its reusable buffer and decodes in place — zero
// allocations per record at steady state — then the whole batch
// travels as ONE journal record (the raw wire bytes) and applies under
// one session-shard lock acquisition, so replay is atomic: a crash
// mid-request either keeps every record of the batch or none.
func (s *Server) handleEventsBinary(w http.ResponseWriter, r *http.Request) {
	tr := requestTrace(w)
	tr.Mark(trace.StageReceive)
	id := r.PathValue("id")
	tr.SetSession(id)
	defer r.Body.Close()
	// MaxBytesReader must see net/http's own writer to close the
	// connection on overflow — unwrap the instrument() recorder, as
	// readJSON does.
	bw := w
	if rec, ok := w.(*statusRecorder); ok {
		bw = rec.ResponseWriter
	}
	dec := wire.GetDecoder()
	defer wire.PutDecoder(dec)
	recs, err := dec.DecodeFrom(http.MaxBytesReader(bw, r.Body, s.maxBody))
	if err != nil {
		s.writeBodyErr(w, err, err.Error())
		return
	}
	tr.Mark(trace.StageDecode)
	if len(recs) > s.maxBatch {
		s.reject(w, http.StatusRequestEntityTooLarge, "body",
			fmt.Sprintf("batch of %d records exceeds the %d-record cap", len(recs), s.maxBatch),
			time.Second)
		return
	}
	// Admission charges per decoded record, not per request: the
	// instrument() middleware already took one token for the request;
	// every record past the first costs one more, so a batch of N and
	// N single-event posts drain the worker's bucket identically.
	if s.admission.rate > 0 && len(recs) > 1 {
		if ok, wait := s.admission.admitN(id, float64(len(recs)-1)); !ok {
			s.reject(w, http.StatusTooManyRequests, "worker-rate",
				"per-worker rate exceeded", wait)
			return
		}
	}
	ev := &event{Op: opBatch, ID: id, Wire: dec.Bytes(), records: recs, tr: tr}
	if err := s.mutate(tr, func() (uint64, error) { return s.applyBatch(ev) }); err != nil {
		writeErr(w, statusFor(err), err.Error())
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]any{"status": "recorded", "records": len(recs)})
}
