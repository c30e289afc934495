package loadgen

import (
	"reflect"
	"testing"
	"time"

	"prord/internal/cluster"
	"prord/internal/health"
	"prord/internal/metrics"
)

// The -faults and -scale-events grammar lives in cluster beside the
// types it produces; its tests stay in this package, next to the
// runners that replay a parsed schedule against live backends.
func TestParseFaults(t *testing.T) {
	got, err := cluster.ParseFaults(" 1@5s:8s, 0@300ms ")
	if err != nil {
		t.Fatal(err)
	}
	want := []cluster.Failure{
		{Server: 1, At: 5 * time.Second, RecoverAt: 8 * time.Second},
		{Server: 0, At: 300 * time.Millisecond},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ParseFaults = %+v, want %+v", got, want)
	}
	if got, err := cluster.ParseFaults(""); err != nil || got != nil {
		t.Fatalf("cluster.ParseFaults(\"\") = %+v, %v", got, err)
	}
	for _, bad := range []string{"1", "x@3s", "1@", "1@3s:", "1@3x", "1@3s:4x", "@3s"} {
		if _, err := cluster.ParseFaults(bad); err == nil {
			t.Errorf("cluster.ParseFaults(%q) accepted", bad)
		}
	}
}

func TestParseFaultModes(t *testing.T) {
	got, err := cluster.ParseFaults("1@5s:20s/slow=x10,0@2s/errrate=0.3,1@1s:9s/flap=500ms,0@3s/slow=x2.5")
	if err != nil {
		t.Fatal(err)
	}
	want := []cluster.Failure{
		{Server: 1, At: 5 * time.Second, RecoverAt: 20 * time.Second, Mode: cluster.Slow, Slowdown: 10},
		{Server: 0, At: 2 * time.Second, Mode: cluster.ErrRate, ErrRate: 0.3},
		{Server: 1, At: time.Second, RecoverAt: 9 * time.Second, Mode: cluster.Flap, FlapPeriod: 500 * time.Millisecond},
		{Server: 0, At: 3 * time.Second, Mode: cluster.Slow, Slowdown: 2.5},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ParseFaults = %+v, want %+v", got, want)
	}
	bad := []string{
		"1@5s/slow=10",     // missing x prefix
		"1@5s/slow=x",      // empty factor
		"1@5s/slow",        // no value
		"1@5s/errrate=abc", // not a number
		"1@5s/flap=zz",     // not a duration
		"1@5s/wobble=3",    // unknown mode
	}
	for _, s := range bad {
		if _, err := cluster.ParseFaults(s); err == nil {
			t.Errorf("cluster.ParseFaults(%q) accepted", s)
		}
	}
}

func TestValidateFaultModes(t *testing.T) {
	bad := [][]cluster.Failure{
		{{Server: 0, At: time.Second, Mode: cluster.Slow, Slowdown: 1}},   // no dilation
		{{Server: 0, At: time.Second, Mode: cluster.Slow, Slowdown: 0.5}}, // speedup
		{{Server: 0, At: time.Second, Mode: cluster.ErrRate, ErrRate: 0}},
		{{Server: 0, At: time.Second, Mode: cluster.ErrRate, ErrRate: 1}},                      // full outage is fail-stop's job
		{{Server: 0, At: time.Second, RecoverAt: 2 * time.Second, Mode: cluster.Flap}},         // no period
		{{Server: 0, At: time.Second, Mode: cluster.Flap, FlapPeriod: 100 * time.Millisecond}}, // unbounded toggle schedule
	}
	for i, faults := range bad {
		cfg := smallConfig(OpenLoop)
		cfg.Faults = faults
		if err := cfg.withDefaults().Validate(); err == nil {
			t.Errorf("case %d: Validate accepted faults %+v", i, faults)
		}
	}
	cfg := smallConfig(OpenLoop)
	cfg.Faults = []cluster.Failure{
		{Server: 1, At: 0, RecoverAt: time.Second, Mode: cluster.Slow, Slowdown: 10},
		{Server: 0, At: 0, Mode: cluster.ErrRate, ErrRate: 0.25},
		{Server: 1, At: 0, RecoverAt: time.Second, Mode: cluster.Flap, FlapPeriod: 100 * time.Millisecond},
	}
	if err := cfg.withDefaults().Validate(); err != nil {
		t.Fatalf("valid gray fault schedule rejected: %v", err)
	}
}

func TestValidateFaults(t *testing.T) {
	bad := [][]cluster.Failure{
		{{Server: 2, At: time.Second}},                                 // out of range
		{{Server: -1, At: time.Second}},                                // out of range
		{{Server: 0, At: -time.Second}},                                // negative time
		{{Server: 0, At: 2 * time.Second, RecoverAt: time.Second}},     // recovery before outage
		{{Server: 0, At: 2 * time.Second, RecoverAt: 2 * time.Second}}, // recovery == outage
	}
	for i, faults := range bad {
		cfg := smallConfig(OpenLoop)
		cfg.Faults = faults
		if err := cfg.withDefaults().Validate(); err == nil {
			t.Errorf("case %d: Validate accepted faults %+v", i, faults)
		}
	}
	cfg := smallConfig(OpenLoop)
	cfg.Faults = []cluster.Failure{{Server: 1, At: 0, RecoverAt: time.Second}}
	if err := cfg.withDefaults().Validate(); err != nil {
		t.Fatalf("valid fault schedule rejected: %v", err)
	}
	cfg.ProbeInterval = -time.Second
	if err := cfg.withDefaults().Validate(); err == nil {
		t.Error("Validate accepted a negative probe interval")
	}
}

// TestFaultScheduleFailover is the live acceptance check for the fault
// layer: kill one of three backends mid-run and require that the
// front-end masks the crash completely — zero client-visible errors,
// failovers counted, the breaker open, and (the real point of the
// gate's demand counter) essentially no demand reaching the corpse
// while the schedule keeps offering hundreds of requests.
func TestFaultScheduleFailover(t *testing.T) {
	cfg := smallConfig(OpenLoop)
	cfg.Backends = 3
	cfg.Health = health.Config{Threshold: 2, Backoff: time.Hour}
	cfg.ProbeInterval = 5 * time.Millisecond
	cfg.Faults = []cluster.Failure{{Server: 1, At: 300 * time.Millisecond}}
	h, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Replicate Run's sequence by hand so the cluster (and its gates)
	// stays inspectable.
	c, err := h.startCluster("PRORD")
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	start := time.Now()
	stop := h.startFaults(c, start)
	live := h.runOpen(c, start)
	stop()
	c.drainPrefetches(time.Second)
	run := h.reduce("PRORD", c, live)

	if run.Errors != 0 {
		t.Errorf("crash leaked to clients: %d errors", run.Errors)
	}
	if run.Failovers == 0 {
		t.Error("no failovers recorded across a mid-run crash")
	}
	if run.Retries < run.Failovers {
		t.Errorf("retries %d < failovers %d", run.Retries, run.Failovers)
	}
	if run.Backends[1].BreakerTrips == 0 {
		t.Error("killed backend's breaker never tripped")
	}
	bh := c.dist.Health()
	if bh[1].State != "open" {
		t.Errorf("killed backend breaker state %q, want open", bh[1].State)
	}
	// Demand on the corpse is bounded by the trip threshold plus
	// requests already past routing when the gate slammed — not by the
	// ~half of the schedule that postdates the kill.
	leaked := c.gates[1].downDemand.Load()
	if limit := int64(cfg.Health.Threshold + cfg.Workers + 4); leaked > limit {
		t.Errorf("dead backend received %d demand requests, want <= %d", leaked, limit)
	}

	sim, err := h.simCompare("PRORD", run)
	if err != nil {
		t.Fatal(err)
	}
	if sim.Failovers == 0 {
		t.Error("sim comparison saw no failovers for the same fault schedule")
	}
}

// TestRunWithFaultsClosedLoop drives the public Run path with a fault
// schedule in closed mode. Completion-paced replay can drain before or
// after the outage lands, so only the hard guarantee is asserted: the
// crash never surfaces to clients.
func TestRunWithFaultsClosedLoop(t *testing.T) {
	cfg := smallConfig(ClosedLoop)
	cfg.Backends = 3
	cfg.Health = health.Config{Threshold: 2, Backoff: time.Hour}
	cfg.Faults = []cluster.Failure{{Server: 0, At: 100 * time.Millisecond}}
	h, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	run, err := h.Run("PRORD")
	if err != nil {
		t.Fatal(err)
	}
	if run.Errors != 0 {
		t.Errorf("crash leaked to clients: %d errors", run.Errors)
	}
	if run.Sim == nil {
		t.Fatal("sim comparison missing")
	}
}

// TestSimCompareSpendsFrontRetries: the simulator side of a comparison
// fails over under the budget the live front-end was given, so
// FrontRetries -1 leaves it no failovers where the default has some.
func TestSimCompareSpendsFrontRetries(t *testing.T) {
	failovers := func(retries int) int64 {
		cfg := smallConfig(OpenLoop)
		cfg.Backends = 3
		cfg.Faults = []cluster.Failure{{Server: 1, At: 300 * time.Millisecond}}
		cfg.FrontRetries = retries
		h, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sim, err := h.simCompare("PRORD", &metrics.BenchRun{})
		if err != nil {
			t.Fatal(err)
		}
		return sim.Failovers
	}
	if def, off := failovers(0), failovers(-1); def == 0 || off != 0 {
		t.Fatalf("sim failovers: %d with the default budget, %d with retries disabled; want some, then none", def, off)
	}
}
