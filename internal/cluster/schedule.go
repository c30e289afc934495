package cluster

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// This file is the one fault-schedule grammar: the flag syntax, and
// the rules a schedule must satisfy whether the simulator runs it on
// virtual time or the load generator replays it against live backends.

// String returns the mode's grammar keyword ("" for fail-stop).
func (m FailureMode) String() string {
	switch m {
	case Slow:
		return "slow"
	case ErrRate:
		return "errrate"
	case Flap:
		return "flap"
	default:
		return ""
	}
}

// ParseFaults parses a -faults flag value: comma-separated
// "backend@at[:recoverAt][/mode]" items with Go duration syntax.
// Without a mode suffix the fault is a fail-stop crash: "1@5s:8s,0@3s"
// kills backend 1 from 5s to 8s and backend 0 from 3s onward. The mode
// suffix selects a gray failure:
//
//	1@5s:20s/slow=x10     service time dilated 10x, no errors
//	1@5s:20s/errrate=0.3  30% of demand requests fail
//	1@5s:20s/flap=500ms   down/up toggles every 500ms
//
// An empty string is no faults.
func ParseFaults(s string) ([]Failure, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	var out []Failure
	for _, item := range strings.Split(s, ",") {
		item = strings.TrimSpace(item)
		serverStr, rest, ok := strings.Cut(item, "@")
		if !ok {
			return nil, fmt.Errorf("cluster: fault %q: want backend@at[:recoverAt][/mode]", item)
		}
		server, err := strconv.Atoi(serverStr)
		if err != nil {
			return nil, fmt.Errorf("cluster: fault %q: bad backend index: %v", item, err)
		}
		times, modeStr, hasMode := strings.Cut(rest, "/")
		atStr, recStr, hasRec := strings.Cut(times, ":")
		at, err := time.ParseDuration(atStr)
		if err != nil {
			return nil, fmt.Errorf("cluster: fault %q: bad outage time: %v", item, err)
		}
		f := Failure{Server: server, At: at}
		if hasRec {
			rec, err := time.ParseDuration(recStr)
			if err != nil {
				return nil, fmt.Errorf("cluster: fault %q: bad recovery time: %v", item, err)
			}
			f.RecoverAt = rec
		}
		if hasMode {
			if err := parseMode(&f, modeStr); err != nil {
				return nil, fmt.Errorf("cluster: fault %q: %v", item, err)
			}
		}
		out = append(out, f)
	}
	return out, nil
}

// parseMode parses the "/mode" suffix into f.
func parseMode(f *Failure, s string) error {
	key, val, ok := strings.Cut(s, "=")
	if !ok {
		return fmt.Errorf("bad mode %q: want slow=xN, errrate=p or flap=period", s)
	}
	switch key {
	case "slow":
		x, found := strings.CutPrefix(val, "x")
		if !found {
			return fmt.Errorf("bad slowdown %q: want xN (e.g. slow=x10)", val)
		}
		factor, err := strconv.ParseFloat(x, 64)
		if err != nil {
			return fmt.Errorf("bad slowdown %q: %v", val, err)
		}
		f.Mode, f.Slowdown = Slow, factor
	case "errrate":
		p, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return fmt.Errorf("bad error rate %q: %v", val, err)
		}
		f.Mode, f.ErrRate = ErrRate, p
	case "flap":
		period, err := time.ParseDuration(val)
		if err != nil {
			return fmt.Errorf("bad flap period %q: %v", val, err)
		}
		f.Mode, f.FlapPeriod = Flap, period
	default:
		return fmt.Errorf("unknown mode %q: want slow, errrate or flap", key)
	}
	return nil
}

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
		}
	}
	return nil
}
