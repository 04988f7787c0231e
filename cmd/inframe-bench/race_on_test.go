//go:build race

package main

// raceEnabled reports whether the race detector instruments this test
// binary; the golden-table rerun skips under it (see TestGoldenTables).
const raceEnabled = true
