//go:build race

package core

// raceEnabled reports a -race build: sync.Pool drops Puts at random
// under the race detector, so allocation counts are not deterministic.
const raceEnabled = true
