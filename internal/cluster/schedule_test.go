package cluster

import (
	"math"
	"testing"
	"time"
)

// TestValidateFailuresRejectsNonFinite is the regression test for
// non-finite gray-failure parameters: NaN compares false against every
// bound, so "slowdown <= 1" and "rate outside (0,1)" both let it
// through, and an infinite slowdown passed "> 1".
func TestValidateFailuresRejectsNonFinite(t *testing.T) {
	at, rec := time.Second, 2*time.Second
	for _, f := range []Failure{
		{At: at, RecoverAt: rec, Mode: Slow, Slowdown: math.NaN()},
		{At: at, RecoverAt: rec, Mode: Slow, Slowdown: math.Inf(1)},
		{At: at, RecoverAt: rec, Mode: Slow, Slowdown: math.Inf(-1)},
		{At: at, RecoverAt: rec, Mode: ErrRate, ErrRate: math.NaN()},
		{At: at, RecoverAt: rec, Mode: ErrRate, ErrRate: math.Inf(1)},
		{At: at, RecoverAt: rec, Mode: ErrRate, ErrRate: math.Inf(-1)},
	} {
		if err := ValidateFailures([]Failure{f}, 4); err == nil {
			t.Errorf("ValidateFailures accepted %+v", f)
		}
	}
}

// FuzzValidateFailures: every failure ValidateFailures accepts is one
// the simulator can run — the server in range, a recovery after the
// outage when there is one, finite parameters inside their mode's
// range, and a mode the simulator knows.
func FuzzValidateFailures(f *testing.F) {
	const s = int64(time.Second)
	for _, seed := range []struct {
		server        int
		at, recoverAt int64
		mode          uint8
		slowdown      float64
		errRate       float64
		flapPeriod    int64
	}{
		{1, 5 * s, 8 * s, uint8(FailStop), 0, 0, 0},
		{1, 5 * s, 20 * s, uint8(Slow), 10, 0, 0},
		{0, 2 * s, 0, uint8(ErrRate), 0, 0.3, 0},
		{1, s, 9 * s, uint8(Flap), 0, 0, s / 2},
		{0, s, 2 * s, uint8(Slow), math.NaN(), 0, 0},
		{0, s, 2 * s, uint8(Slow), math.Inf(1), 0, 0},
		{0, s, 2 * s, uint8(ErrRate), 0, math.NaN(), 0},
		{0, -s, 0, uint8(FailStop), 0, 0, 0},
		{3, 2 * s, s, uint8(Flap) + 1, 3, 0, 0},
	} {
		f.Add(seed.server, seed.at, seed.recoverAt, seed.mode, seed.slowdown, seed.errRate, seed.flapPeriod)
	}
	const backends = 4
	f.Fuzz(func(t *testing.T, server int, at, recoverAt int64, mode uint8, slowdown, errRate float64, flapPeriod int64) {
		x := Failure{
			Server: server, At: time.Duration(at), RecoverAt: time.Duration(recoverAt),
			Mode: FailureMode(mode), Slowdown: slowdown, ErrRate: errRate,
			FlapPeriod: time.Duration(flapPeriod),
		}
		if ValidateFailures([]Failure{x}, backends) != nil {
			return
		}
		if x.Server < 0 || x.Server >= backends {
			t.Fatalf("accepted server %d of %d", x.Server, backends)
		}
		if x.At < 0 || (x.RecoverAt != 0 && x.RecoverAt <= x.At) {
			t.Fatalf("accepted times at=%v recover=%v", x.At, x.RecoverAt)
		}
		switch x.Mode {
		case FailStop:
		case Slow:
			if !(x.Slowdown > 1) || math.IsInf(x.Slowdown, 0) {
				t.Fatalf("accepted slowdown x%g", x.Slowdown)
			}
		case ErrRate:
			if !(x.ErrRate > 0 && x.ErrRate < 1) {
				t.Fatalf("accepted error rate %g", x.ErrRate)
			}
		case Flap:
			if x.FlapPeriod <= 0 || x.RecoverAt == 0 {
				t.Fatalf("accepted flap period %v with recovery %v", x.FlapPeriod, x.RecoverAt)
			}
		default:
			t.Fatalf("accepted unknown mode %d", x.Mode)
		}
	})
}
