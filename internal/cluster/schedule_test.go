package cluster

import (
	"math"
	"testing"
)

// TestValidateFailuresRejectsNonFinite is the regression test for
// non-finite gray-failure parameters: NaN compares false against every
// bound, so "slowdown <= 1" and "rate outside (0,1)" both let it
// through, and an infinite slowdown passed "> 1".
func TestValidateFailuresRejectsNonFinite(t *testing.T) {
	for _, s := range []string{
		"0@1s:2s/slow=xNaN",
		"0@1s:2s/slow=xInf",
		"0@1s:2s/slow=x+Inf",
		"0@1s:2s/errrate=NaN",
		"0@1s:2s/errrate=-Inf",
	} {
		faults, err := ParseFaults(s)
		if err != nil {
			continue // rejecting at parse time is fine too
		}
		if err := ValidateFailures(faults, 4); err == nil {
			t.Errorf("%q: ParseFaults and ValidateFailures both accepted %+v", s, faults)
		}
	}
}

// FuzzParseFaults: ParseFaults never panics, and every schedule that
// both ParseFaults and ValidateFailures accept is one the simulator and
// the load generator can run — finite parameters inside their mode's
// range, and a recovery after the outage when there is one.
func FuzzParseFaults(f *testing.F) {
	for _, s := range []string{
		"",
		"1@5s:8s, 0@300ms",
		"1@5s:20s/slow=x10,0@2s/errrate=0.3,1@1s:9s/flap=500ms,0@3s/slow=x2.5",
		"0@1s:2s/slow=xNaN",
		"0@1s:2s/slow=xInf",
		"0@1s:2s/errrate=NaN",
		"0@-1s",
		"3@2s:1s",
		"1@5s/wobble=3",
	} {
		f.Add(s)
	}
	const backends = 4
	f.Fuzz(func(t *testing.T, s string) {
		faults, err := ParseFaults(s)
		if err != nil || ValidateFailures(faults, backends) != nil {
			return
		}
		for _, x := range faults {
			if x.Server < 0 || x.Server >= backends {
				t.Fatalf("%q: accepted server %d of %d", s, x.Server, backends)
			}
			if x.At < 0 || (x.RecoverAt != 0 && x.RecoverAt <= x.At) {
				t.Fatalf("%q: accepted times at=%v recover=%v", s, x.At, x.RecoverAt)
			}
			if math.IsNaN(x.Slowdown) || math.IsInf(x.Slowdown, 0) || math.IsNaN(x.ErrRate) || math.IsInf(x.ErrRate, 0) {
				t.Fatalf("%q: accepted non-finite parameters %+v", s, x)
			}
			switch x.Mode {
			case Slow:
				if x.Slowdown <= 1 {
					t.Fatalf("%q: accepted slowdown x%g", s, x.Slowdown)
				}
			case ErrRate:
				if x.ErrRate <= 0 || x.ErrRate >= 1 {
					t.Fatalf("%q: accepted error rate %g", s, x.ErrRate)
				}
			case Flap:
				if x.FlapPeriod <= 0 || x.RecoverAt == 0 {
					t.Fatalf("%q: accepted flap period %v with recovery %v", s, x.FlapPeriod, x.RecoverAt)
				}
			}
		}
	})
}
