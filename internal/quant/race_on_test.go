//go:build race

package quant_test

// raceEnabled reports whether the race detector is built in.
const raceEnabled = true
