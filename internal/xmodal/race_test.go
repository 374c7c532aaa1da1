//go:build race

package xmodal

// raceEnabled reports that the race detector is on: sync.Pool then drops
// items at random, so pooled paths allocate and allocation guards skip.
const raceEnabled = true
