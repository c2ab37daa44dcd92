//go:build race

package regression

// raceEnabled reports a -race build: sync.Pool then drops pooled engines at
// random, so allocation counts are not meaningful.
const raceEnabled = true
