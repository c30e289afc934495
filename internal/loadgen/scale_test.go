package loadgen

import (
	"reflect"
	"testing"
	"time"

	"prord/internal/autoscale"
	"prord/internal/cluster"
	"prord/internal/metrics"
	"prord/internal/overload"
)

func TestParseScaleEvents(t *testing.T) {
	got, err := cluster.ParseScaleEvents(" +1@5s, -1@300ms ,2@1m")
	if err != nil {
		t.Fatal(err)
	}
	want := []cluster.ScaleEvent{
		{Delta: 1, At: 5 * time.Second},
		{Delta: -1, At: 300 * time.Millisecond},
		{Delta: 2, At: time.Minute},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ParseScaleEvents = %+v, want %+v", got, want)
	}
	if got, err := cluster.ParseScaleEvents(""); err != nil || got != nil {
		t.Fatalf("cluster.ParseScaleEvents(\"\") = %+v, %v", got, err)
	}
	for _, bad := range []string{"+1", "x@3s", "+1@", "+1@3x", "@3s"} {
		if _, err := cluster.ParseScaleEvents(bad); err == nil {
			t.Errorf("cluster.ParseScaleEvents(%q) accepted", bad)
		}
	}
}

func TestValidateScaleEvents(t *testing.T) {
	// Events without an autoscale configuration are rejected.
	cfg := smallConfig(OpenLoop)
	cfg.ScaleEvents = []cluster.ScaleEvent{{Delta: 1, At: time.Second}}
	if err := cfg.withDefaults().Validate(); err == nil {
		t.Error("Validate accepted scale events without Autoscale")
	}
	cfg.Autoscale = &autoscale.Config{Initial: 1, Min: 1}
	if err := cfg.withDefaults().Validate(); err != nil {
		t.Fatalf("valid scale schedule rejected: %v", err)
	}
	bad := [][]cluster.ScaleEvent{
		{{Delta: 0, At: time.Second}},  // zero delta
		{{Delta: 1, At: -time.Second}}, // negative time
	}
	for i, events := range bad {
		c := cfg
		c.ScaleEvents = events
		if err := c.withDefaults().Validate(); err == nil {
			t.Errorf("case %d: Validate accepted events %+v", i, events)
		}
	}
	// An explicit Max that disagrees with the backend count is rejected:
	// the provisioned index space is the booted demo backends.
	c := cfg
	c.Autoscale = &autoscale.Config{Max: 7, Initial: 1, Min: 1}
	if err := c.withDefaults().Validate(); err == nil {
		t.Error("Validate accepted autoscale Max != backends")
	}
}

// TestRunWithScaleSchedule is the live acceptance check for the scale
// layer: an open-loop run on an elastic pool of two-of-three backends
// joins the third mid-run and drains one near the end. The pool
// snapshot must land in the artifact cell, the sim comparison must run
// the same schedule, and the scaling must stay invisible to clients.
func TestRunWithScaleSchedule(t *testing.T) {
	cfg := smallConfig(OpenLoop)
	cfg.Backends = 3
	cfg.Autoscale = &autoscale.Config{
		Initial:  2,
		Min:      1,
		WarmRamp: 8,
		ColdJoin: true, // keep the live/sim hit rates comparable
	}
	cfg.ScaleEvents = []cluster.ScaleEvent{
		{Delta: 1, At: 250 * time.Millisecond},
		{Delta: -1, At: 600 * time.Millisecond},
	}
	h, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	run, err := h.Run("PRORD")
	if err != nil {
		t.Fatal(err)
	}
	if run.Errors != 0 {
		t.Errorf("scaling leaked to clients: %d errors", run.Errors)
	}
	as := run.Autoscale
	if as == nil {
		t.Fatal("run missing the autoscale block with an elastic pool configured")
	}
	if as.Joins != 1 || as.Drains != 1 {
		t.Errorf("joins=%d drains=%d, want 1 and 1", as.Joins, as.Drains)
	}
	if as.FinalSize != 2 {
		t.Errorf("final pool size = %d, want 2", as.FinalSize)
	}
	if run.Sim == nil {
		t.Fatal("sim comparison missing")
	}

	// The config echo carries the pool and the schedule.
	res := &Result{Config: h.cfg, Workload: h.Workload(), Runs: []metrics.BenchRun{*run}}
	art := res.Artifact()
	echo, ok := art.Config.(configJSON)
	if !ok {
		t.Fatalf("artifact config has type %T", art.Config)
	}
	if echo.Autoscale == nil || echo.Autoscale.Initial != 2 || echo.Autoscale.Max != 3 {
		t.Errorf("config echo autoscale block = %+v, want initial 2 of max 3", echo.Autoscale)
	}
	if len(echo.ScaleEvents) != 2 || echo.ScaleEvents[0].AtMS != 250 || echo.ScaleEvents[1].Delta != -1 {
		t.Errorf("config echo scale events = %+v", echo.ScaleEvents)
	}
}

// TestRunWithOrganicAutoscale wires a ramp scenario with overload
// control and an elastic pool but no scripted events: the organic
// controller owns resizing. Whether it actually scales depends on
// wall-clock service times, so only the wiring is asserted — the run
// completes cleanly, the pool block is present, and the final size
// stays within [Min, Backends].
func TestRunWithOrganicAutoscale(t *testing.T) {
	cfg := smallConfig(OpenLoop)
	cfg.Backends = 3
	cfg.Rate = 200
	cfg.RampTo = 1200
	cfg.Overload = &overload.Config{CapacityPerBackend: 2, MinHold: 20 * time.Millisecond}
	cfg.Autoscale = &autoscale.Config{
		Initial:  1,
		Min:      1,
		UpHold:   30 * time.Millisecond,
		Cooldown: 50 * time.Millisecond,
		ColdJoin: true,
	}
	h, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	run, err := h.Run("PRORD")
	if err != nil {
		t.Fatal(err)
	}
	as := run.Autoscale
	if as == nil {
		t.Fatal("run missing the autoscale block with an elastic pool configured")
	}
	if as.FinalSize < 1 || as.FinalSize > cfg.Backends {
		t.Errorf("final pool size %d outside [1, %d]", as.FinalSize, cfg.Backends)
	}
	if run.Sim == nil {
		t.Fatal("sim comparison missing")
	}
}
