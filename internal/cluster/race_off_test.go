//go:build !race

package cluster

// raceEnabled reports whether the race detector instruments this test
// binary; the allocation ratchet skips under it because the
// instrumentation allocates on paths the production build does not.
const raceEnabled = false
