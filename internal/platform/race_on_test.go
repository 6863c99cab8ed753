//go:build race

package platform

// raceEnabled reports a -race build, whose sync.Pool drops entries at
// random, so allocation counts through pooled buffers are not stable.
const raceEnabled = true
