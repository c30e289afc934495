package cluster

import (
	"reflect"
	"testing"
	"time"

	"prord/internal/autoscale"
	"prord/internal/mining"
	"prord/internal/overload"
	"prord/internal/policy"
	"prord/internal/trace"
)

// traceSpan returns the first and last arrival offsets; scripted scale
// events are placed inside this window. (An eval split's offsets start
// partway through the full trace, so 0 is long before any traffic.)
func traceSpan(tr *trace.Trace) (first, last time.Duration) {
	if len(tr.Requests) == 0 {
		return 0, 0
	}
	return tr.Requests[0].Time, tr.Requests[len(tr.Requests)-1].Time
}

// compressTimes linearly rescales the trace's arrivals onto a target
// span starting at zero, so a fixed-width join window (warmWindow)
// covers a meaningful share of the traffic.
func compressTimes(tr *trace.Trace, span time.Duration) *trace.Trace {
	out := *tr
	out.Requests = append([]trace.Request(nil), tr.Requests...)
	first, last := traceSpan(tr)
	if last <= first {
		return &out
	}
	for i := range out.Requests {
		frac := float64(out.Requests[i].Time-first) / float64(last-first)
		out.Requests[i].Time = time.Duration(frac * float64(span))
	}
	return &out
}

// resession splits each session at bucket boundaries so new sessions
// keep arriving for the whole trace. A session-binding policy (WRR)
// otherwise binds everything before a mid-trace join fires and the
// joined backend never sees a request.
func resession(tr *trace.Trace, bucket time.Duration) *trace.Trace {
	out := *tr
	out.Requests = append([]trace.Request(nil), tr.Requests...)
	type key struct {
		sess   int
		bucket int64
	}
	ids := map[key]int{}
	for i := range out.Requests {
		r := &out.Requests[i]
		k := key{r.Session, int64(r.Time / bucket)}
		id, ok := ids[k]
		if !ok {
			id = len(ids)
			ids[k] = id
		}
		r.Session = id
	}
	return &out
}

// retimeTail rewrites the last `tail` requests' arrivals to one per gap,
// turning the trace's end into a sparse tail-off that lets the overload
// tier fall back to Normal while completions still drive the
// controller's Observe loop.
func retimeTail(tr *trace.Trace, tail int, gap time.Duration) *trace.Trace {
	out := *tr
	out.Requests = append([]trace.Request(nil), tr.Requests...)
	start := len(out.Requests) - tail
	if start < 1 {
		start = 1
	}
	base := out.Requests[start-1].Time
	for i := start; i < len(out.Requests); i++ {
		base += gap
		out.Requests[i].Time = base
	}
	return &out
}

// TestSimScriptedScaleDeterministic is the acceptance check that a
// seeded scripted-scale run is byte-stable: two identical runs —
// workload, policy, warm joins, drains — must produce deeply equal
// Results, pool event logs included.
func TestSimScriptedScaleDeterministic(t *testing.T) {
	run := func() *Result {
		tr, m := testWorkload(t, 3000, 51)
		first, last := traceSpan(tr)
		span := last - first
		cl, err := New(Config{
			Params:   smallParams(4, 4, 2),
			Policy:   policy.NewPRORD(policy.Thresholds{}),
			Features: AllFeatures(),
			Miner:    m,
			Autoscale: &autoscale.Config{
				Initial:  2,
				Min:      1,
				WarmRamp: 16,
			},
			ScaleEvents: []ScaleEvent{
				{Delta: 1, At: first + span/8},
				{Delta: 1, At: first + span/4},
				{Delta: -1, At: first + 3*span/4},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := cl.Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := run()
	as := res.Autoscale
	if as == nil {
		t.Fatal("no Autoscale result with Config.Autoscale set")
	}
	if as.Joins != 2 || as.Drains != 1 {
		t.Fatalf("joins/drains = %d/%d, want 2/1", as.Joins, as.Drains)
	}
	if as.FinalSize != 3 {
		t.Fatalf("final pool size = %d, want 3", as.FinalSize)
	}
	if len(as.JoinWindows) != 2 {
		t.Fatalf("join windows = %d, want 2", len(as.JoinWindows))
	}
	for i, w := range as.JoinWindows {
		if w.Hits+w.Misses == 0 {
			t.Errorf("join window %d (backend %d) saw no traffic", i, w.Server)
		}
	}
	if len(as.Events) == 0 {
		t.Fatal("pool event log empty after three scripted resizes")
	}
	for i := 1; i < len(as.Events); i++ {
		if as.Events[i].At.Before(as.Events[i-1].At) {
			t.Fatalf("pool event log not time-ordered: %v", as.Events)
		}
	}
	if res2 := run(); !reflect.DeepEqual(res, res2) {
		t.Fatalf("identical seeded scripted-scale runs diverged:\n%+v\n%+v", res, res2)
	}
}

// TestSimOrganicAutoscale drives the tier-watching controller end to
// end: a dense burst saturates the overload ladder until the controller
// joins backends, and a sparse tail lets the tier fall back to Normal
// long enough for it to drain them again.
func TestSimOrganicAutoscale(t *testing.T) {
	tr, _ := testWorkload(t, 3000, 57)
	tr = retimeTail(tr, len(tr.Requests)/5, 200*time.Millisecond)
	cl, err := New(Config{
		Params: smallParams(4, 4, 2),
		Policy: policy.NewWRR(4),
		Overload: &overload.Config{
			CapacityPerBackend: 2,
			MinHold:            10 * time.Millisecond,
		},
		Autoscale: &autoscale.Config{
			Initial:  2,
			Min:      1,
			WarmRamp: 8,
			UpHold:   50 * time.Millisecond,
			DownHold: 500 * time.Millisecond,
			Cooldown: 200 * time.Millisecond,
			ColdJoin: true,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	as := res.Autoscale
	if as == nil {
		t.Fatal("no Autoscale result")
	}
	if as.Joins == 0 {
		t.Fatal("controller never joined a backend despite a saturated burst")
	}
	if as.Drains == 0 {
		t.Fatal("controller never drained a backend despite the sparse tail")
	}
	if len(as.ScaleUpLatencies) != int(as.Joins) {
		t.Fatalf("scale-up latencies = %d, want one per join (%d)", len(as.ScaleUpLatencies), as.Joins)
	}
	for i, l := range as.ScaleUpLatencies {
		if l < 50*time.Millisecond {
			t.Errorf("join %d decided after %v, under the 50ms UpHold", i, l)
		}
	}
	if res.Metrics.Completed != int64(len(tr.Requests)) {
		t.Fatalf("completed %d of %d with elastic pool", res.Metrics.Completed, len(tr.Requests))
	}
}

// warmColdPair runs the same seeded workload through the same scripted
// single-join schedule twice — once warm-preloading the rank table,
// once joining cold — and returns both join windows.
func warmColdPair(t *testing.T) (warm, cold JoinWindowStats) {
	t.Helper()
	run := func(coldJoin bool) JoinWindowStats {
		// The full trace with arrivals compressed to two minutes (the
		// one-minute join window then covers half the traffic) and
		// sessions re-cut at 15s boundaries so new sessions keep arriving
		// past the join. WRR's load-blind rotation then routes the SAME
		// request stream to the joined backend in both runs, so the hit
		// rates differ only by the warm preload's cache effect.
		_, full, err := trace.GeneratePreset(trace.PresetSynthetic, 0.1, 53)
		if err != nil {
			t.Fatal(err)
		}
		m := mining.Mine(full, mining.Options{})
		tr := resession(compressTimes(full, 2*time.Minute), 15*time.Second)
		cl, err := New(Config{
			Params: smallParams(4, 4, 2),
			Policy: policy.NewWRR(4),
			Miner:  m,
			Autoscale: &autoscale.Config{
				Initial:  3,
				Min:      1,
				WarmRamp: 16,
				WarmTop:  64,
				ColdJoin: coldJoin,
			},
			ScaleEvents: []ScaleEvent{{Delta: 1, At: 30 * time.Second}},
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := cl.Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		if res.Autoscale == nil || len(res.Autoscale.JoinWindows) != 1 {
			t.Fatalf("expected exactly one join window, got %+v", res.Autoscale)
		}
		w := res.Autoscale.JoinWindows[0]
		if w.Hits+w.Misses == 0 {
			t.Fatal("joined backend saw no traffic in its first minute")
		}
		return w
	}
	return run(false), run(true)
}

// TestSimWarmJoinBeatsColdJoin is the acceptance criterion: on the same
// seed and scale schedule, the warm join's first-minute hit rate at the
// joined backend must be strictly above the cold-join control's.
func TestSimWarmJoinBeatsColdJoin(t *testing.T) {
	warm, cold := warmColdPair(t)
	if warm.HitRate <= cold.HitRate {
		t.Fatalf("warm join first-minute hit rate %.3f (%d/%d) not above cold %.3f (%d/%d)",
			warm.HitRate, warm.Hits, warm.Hits+warm.Misses,
			cold.HitRate, cold.Hits, cold.Hits+cold.Misses)
	}
}
