package main

import (
	"testing"
	"time"

	"prord/internal/loadgen"
)

// TestThinkMsZeroMeansNone: -think-ms 0 must reach the harness as no
// think time, not as the library's 25ms default.
func TestThinkMsZeroMeansNone(t *testing.T) {
	for ms, want := range map[int]time.Duration{0: 0, 25: 25 * time.Millisecond} {
		h, err := loadgen.New(loadgen.Config{
			Mode:     loadgen.ClosedLoop,
			Policies: []string{"WRR"},
			Think:    thinkTime(ms),
			Scale:    0.02,
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := h.Config().Think; got != want {
			t.Errorf("-think-ms %d: effective think time %v, want %v", ms, got, want)
		}
	}
}
