package cluster

import (
	"fmt"
	"math"
)

// ValidateFailures checks a failure schedule against a cluster of the
// given size, returning the first problem found.
func ValidateFailures(failures []Failure, backends int) error {
	for _, f := range failures {
		if f.Server < 0 || f.Server >= backends {
			return fmt.Errorf("cluster: failure for invalid server %d (have %d)", f.Server, backends)
		}
		if f.At < 0 || (f.RecoverAt != 0 && f.RecoverAt <= f.At) {
			return fmt.Errorf("cluster: failure times invalid (%v, %v)", f.At, f.RecoverAt)
		}
		// The range checks are written so that NaN fails them.
		switch f.Mode {
		case FailStop: // no parameters
		case Slow:
			if !(f.Slowdown > 1) || math.IsInf(f.Slowdown, 1) {
				return fmt.Errorf("cluster: slow failure needs a finite slowdown > 1, got x%g", f.Slowdown)
			}
		case ErrRate:
			// 1 is rejected: a backend that fails everything is
			// FailStop, and retrying against a 100%-erroring-but-
			// available backend would never terminate.
			if !(f.ErrRate > 0 && f.ErrRate < 1) {
				return fmt.Errorf("cluster: errrate failure needs a rate in (0,1), got %g (use fail-stop for a full outage)", f.ErrRate)
			}
		case Flap:
			if f.FlapPeriod <= 0 || f.RecoverAt == 0 {
				return fmt.Errorf("cluster: flap failure needs a positive period and a recovery time to bound its toggle schedule")
			}
		default:
			return fmt.Errorf("cluster: unknown failure mode %d", f.Mode)
		}
	}
	return nil
}
