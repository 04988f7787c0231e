//go:build race

package inframe

// raceEnabled reports whether the race detector instruments this test
// binary; heap-traffic gates skip under it (see TestSimulateDisplayMemoryFlat).
const raceEnabled = true
