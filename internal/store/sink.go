package store

import "time"

// Sink receives the journal's durability telemetry. The store knows
// nothing about metric registries — callers adapt these hooks onto
// whatever observability system they run (internal/platform wires them
// into internal/telemetry) — so the storage subsystem stays
// dependency-free.
//
// Hooks are invoked on the append and commit paths, some under the log
// mutex; implementations must be cheap, non-blocking and safe for
// concurrent use. A nil Options.Metrics disables all of them.
type Sink interface {
	// JournalAppend fires once per appended record with its framed size
	// in bytes (header + payload).
	JournalAppend(bytes int)
	// GroupWindow fires once per group-commit flush window with the
	// number of records the window made durable. Without group commit
	// every record is its own window of 1.
	GroupWindow(records int)
	// FsyncDone fires after each journal fsync with its wall-clock
	// latency — per record in fsync mode, per flush window under group
	// commit.
	FsyncDone(d time.Duration)
	// SnapshotRotate fires after a snapshot has been durably written
	// and the active segment rotated.
	SnapshotRotate()
}

// sinkAppend reports one framed record to the sink, if any.
func (l *Log) sinkAppend(frameBytes int) {
	if l.opts.Metrics != nil {
		l.opts.Metrics.JournalAppend(frameBytes)
	}
}

// sinkWindow reports one durability window (and, when timed, its fsync)
// to the sink, if any.
func (l *Log) sinkWindow(records int) {
	if l.opts.Metrics != nil && records > 0 {
		l.opts.Metrics.GroupWindow(records)
	}
}

// sinkFsync reports one fsync latency to the sink, if any.
func (l *Log) sinkFsync(d time.Duration) {
	if l.opts.Metrics != nil {
		l.opts.Metrics.FsyncDone(d)
	}
}

// sinkSnapshot reports one snapshot rotation to the sink, if any.
func (l *Log) sinkSnapshot() {
	if l.opts.Metrics != nil {
		l.opts.Metrics.SnapshotRotate()
	}
}

// WindowTiming describes one group-commit flush window for request-
// trace attribution: the contiguous sequence range the window made
// durable and the window's commit timestamps. Without Options.Fsync
// the fsync interval is empty (FsyncStart == FsyncEnd == the flush's
// completion), so flush/fsync/ack splits still partition a waiter's
// durability wait.
type WindowTiming struct {
	FirstSeq, LastSeq uint64
	// FlushStart is when the committer began the window's buffered
	// write; FsyncStart/FsyncEnd bracket the window's single fsync.
	FlushStart, FsyncStart, FsyncEnd time.Time
}

// TraceSink receives commit-window timing, the journal-side half of
// the request-tracing pipeline (Options.Trace). Like Sink it keeps the
// store dependency-free: internal/platform adapts it onto its trace
// buffer. The committer goroutine fires it once per window, after the
// window is durable and strictly before the covered waiters are woken,
// so a WaitDurable caller that looks its sequence up on return always
// finds its window. Implementations must be cheap and safe for
// concurrent use with readers.
type TraceSink interface {
	CommitWindow(WindowTiming)
}

// traceWindow reports one durable commit window to the trace sink, if
// any. Called by the committer before markDurable advances the
// watermark: l.durable still names the previous window's end, so the
// range published is exactly what this window covers.
func (l *Log) traceWindow(lastSeq uint64, flushStart, fsyncStart, fsyncEnd time.Time) {
	if l.opts.Trace == nil {
		return
	}
	l.ackMu.Lock()
	first := l.durable + 1
	l.ackMu.Unlock()
	if first > lastSeq {
		return // watermark already past: nothing newly durable
	}
	l.opts.Trace.CommitWindow(WindowTiming{
		FirstSeq: first, LastSeq: lastSeq,
		FlushStart: flushStart, FsyncStart: fsyncStart, FsyncEnd: fsyncEnd,
	})
}
