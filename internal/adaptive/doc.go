// Package adaptive makes campaigns sequential, after VidPlat: instead
// of collecting a fixed number of judgments per video, the platform
// keeps a per-video confidence interval over the kept sessions'
// submissions, stops steering assignments at videos whose interval has
// resolved to the configured half-width, and closes the whole campaign
// once every comparison has resolved — cutting sessions-to-decision by
// whatever margin the crowd's agreement allows.
//
// # Estimation
//
// Each video's estimator holds the kept, non-control submissions in
// completion order (timeline campaigns: user-perceived load time in
// seconds; A/B campaigns: each vote mapped to a preference score — A=1,
// B=0, no-difference=0.5). With enough samples the 95% interval is the
// normal approximation mean ± z·s/√n. Below Config.BootstrapBelow
// samples the normal approximation is optimistic, so a deterministic
// seeded bootstrap takes over: Config.Resamples resamples with
// replacement, each drawn from a splitmix64 stream keyed by
// (Config.Seed, video ID, n), and the half-width is half the
// 2.5th–97.5th percentile spread of the resampled means. Everything is
// a pure function of (values in completion order, Config), which is
// what lets crash recovery re-fold the journal and land on bit-equal
// stopping decisions.
//
// # Stopping and allocation
//
// A video is "collecting" until it has Config.MinKept kept samples AND
// a computed half-width at or under Config.HalfWidth; then it is
// "resolved", stickily — later samples (sessions already in flight
// when it resolved) never reopen it. The campaign closes when every
// registered video has resolved; registering a new video reopens it.
//
// The allocator steers each new session at the unresolved videos,
// most-needed first: fewest expected samples (kept plus in-flight
// assignments) first, then widest interval, then registration order.
// In-flight assignments count toward a video's expected samples from
// the moment the session is journaled — NOT from its verdict, because
// an in-flight session's provisional verdict always reads DropSoft
// (the §4.3 soft rule holds until every assigned video is interacted
// with) and spending that would make every pending session look like a
// loss and over-assign without bound. Only final verdicts feed the
// estimators.
//
// The type is not goroutine-safe: the platform mutates and reads it
// under the owning campaign's shard lock, exactly like
// quality.Campaign. Only Complete computes intervals (it caches each
// video's interval at its current sample count); Assign, Status and the
// other readers never write, so they may run concurrently under the
// lock's read side.
package adaptive
