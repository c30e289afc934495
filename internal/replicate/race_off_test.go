//go:build !race

package replicate

// raceEnabled reports whether the race detector instruments this test
// binary; allocation-count assertions skip under it because the
// instrumentation allocates on paths the production build does not.
const raceEnabled = false
