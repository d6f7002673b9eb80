//go:build race

package core

// raceEnabled is set under the race detector, which makes sync.Pool drop
// items at random: allocation counts of pooled paths then mean nothing.
const raceEnabled = true
