//go:build !race

package httpfront

// raceEnabled reports whether the race detector instruments this test
// binary; the allocation ratchet skips under it because the
// instrumentation allocates, and sync.Pool drops items, on paths the
// production build does not.
const raceEnabled = false
