//go:build !race

package core

// raceEnabled is set under the race detector (see race_test.go).
const raceEnabled = false
