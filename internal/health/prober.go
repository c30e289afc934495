// Wall-clock allowance: this file is the one place in internal/health
// permitted to use real timers, through the //lint:ignore clockflow
// directive on its timer (see internal/lint/clockflow.go). The
// prober must wait real time between probes, but its jitter comes from a
// seeded randutil.Source so the probe schedule is reproducible.

package health

import (
	"time"

	"prord/internal/randutil"
)

// Probe invokes fn on a jittered interval until stop closes. Each wait
// is drawn uniformly from [interval/2, 3*interval/2) using src, which
// spreads probe bursts without wall-clock randomness; a nil src disables
// the jitter. A non-positive interval returns immediately.
func Probe(interval time.Duration, src *randutil.Source, stop <-chan struct{}, fn func()) {
	if interval <= 0 {
		return
	}
	// The prober is the clock *driver*, not a clock consumer: it turns
	// real elapsed time into fn() ticks, so it is the one function under
	// clockflow's reach that must touch a real timer. Determinism is
	// preserved because the jitter sequence comes from the seeded src.
	//lint:ignore clockflow the prober converts real time into probe ticks; only its jitter must be (and is) deterministic
	t := time.NewTimer(jitter(interval, src))
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			fn()
			t.Reset(jitter(interval, src))
		}
	}
}

// jitter draws one wait from [interval/2, 3*interval/2).
func jitter(interval time.Duration, src *randutil.Source) time.Duration {
	if src == nil {
		return interval
	}
	return interval/2 + time.Duration(src.Float64()*float64(interval))
}
