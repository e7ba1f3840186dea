//go:build race

package main

// raceEnabled reports whether the race detector is on: it slows the server
// below serve-mixed's offered load, which the benchmark then rightly
// reports as an invalid run.
const raceEnabled = true
