package loadgen

import (
	"sort"
	"time"

	"prord/internal/cluster"
)

// startScaleEvents launches the scripted scale schedule against the
// cluster's front-end, anchored at start like the fault runner. Each
// event applies its delta as that many ScaleUp or ScaleDown calls; a
// refused resize (pool already at Max or Min) is skipped rather than
// fatal, so a schedule keeps its remaining events meaningful. The
// returned stop function cancels pending events and waits for the
// runner to exit; with no events configured it is a no-op.
func (h *Harness) startScaleEvents(c *liveCluster, start time.Time) (stop func()) {
	if len(h.cfg.ScaleEvents) == 0 {
		return func() {}
	}
	events := append([]cluster.ScaleEvent(nil), h.cfg.ScaleEvents...)
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTimer(time.Hour)
		defer t.Stop()
		for _, e := range events {
			if !t.Stop() {
				select {
				case <-t.C:
				default:
				}
			}
			t.Reset(time.Until(start.Add(e.At)))
			select {
			case <-quit:
				return
			case <-t.C:
			}
			for d := e.Delta; d > 0; d-- {
				c.dist.ScaleUp()
			}
			for d := e.Delta; d < 0; d++ {
				c.dist.ScaleDown()
			}
		}
	}()
	return func() { close(quit); <-done }
}
