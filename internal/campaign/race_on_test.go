//go:build race

package campaign

// raceEnabled reports a -race build, under which sync.Pool drops pooled
// items at random, so allocation counts vary from run to run.
const raceEnabled = true
