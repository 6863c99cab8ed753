// Package store is the embedded storage subsystem behind the platform:
// a durable, append-only event journal — a segmented write-ahead log
// with CRC-framed records, periodic snapshots, and crash recovery that
// replays the tail — plus a sharded in-memory map for the indexes built
// on top of it.
//
// The journal knows nothing about its payloads. Callers append opaque
// records, periodically hand the journal a serialized snapshot of their
// state, and after a restart rebuild by loading the newest snapshot and
// replaying every record past it. Sequence numbers start at 1 and are
// assigned in append order, which is therefore the replay order.
// Options.GroupCommit swaps per-record durability for a group-commit
// pipeline (see group.go): identical bytes on disk, one flush + fsync
// per window instead of per record.
//
// On-disk layout inside the data directory:
//
//	wal-<first seq, 16 hex>.seg   record segments, rotated by size
//	snap-<seq, 16 hex>.snap       state snapshots (CRC header + payload)
//
// Each segment record is framed as a 4-byte little-endian payload
// length, a 4-byte CRC32-C of the payload, and the payload itself. A
// torn append (crash mid-write) leaves an invalid frame at the end of
// the newest segment; Open truncates it away. An invalid frame in any
// older segment is real corruption and fails Open. The full frame,
// window and snapshot formats are specified in docs/PROTOCOLS.md.
//
// Two hook interfaces keep the journal dependency-free while letting
// the platform observe it: Sink (durability telemetry) and TraceSink
// (per-window commit timing for request tracing). The journal is not
// replicated: a record is as durable as this directory's disk, and
// nothing ships it anywhere else.
package store
