//go:build race

package core

// raceEnabled reports that the test binary is race-instrumented.
const raceEnabled = true
