package cluster

import (
	"testing"
	"time"

	"prord/internal/dispatch"
	"prord/internal/mining"
	"prord/internal/policy"
)

func TestPowerManagementSavesEnergyAtLowLoad(t *testing.T) {
	tr, m := testWorkload(t, 3000, 201)
	cl, err := New(Config{
		Params:   smallParams(8, 4, 2),
		Policy:   policy.NewLARD(policy.Thresholds{}),
		Miner:    m,
		Power:    PowerParams{Enabled: true, Interval: 200 * time.Millisecond},
		Features: Features{},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Completed != int64(len(tr.Requests)) {
		t.Fatalf("completed %d of %d", res.Metrics.Completed, len(tr.Requests))
	}
	// The uncompressed test trace is lightly loaded: with 8 backends most
	// should hibernate, cutting average power well below all-active.
	if res.AvgPower >= 0.7 {
		t.Fatalf("AvgPower = %.3f, expected significant savings at low load", res.AvgPower)
	}
	if res.Sleeps == 0 {
		t.Fatal("no backend ever hibernated")
	}
}

func TestPowerDisabledReportsFullDraw(t *testing.T) {
	tr, m := testWorkload(t, 1000, 203)
	res := runPolicy(t, tr, m, policy.NewLARD(policy.Thresholds{}), Features{}, smallParams(4, 4, 2))
	if res.AvgPower != 1 {
		t.Fatalf("AvgPower without power management = %v, want 1", res.AvgPower)
	}
	if res.Wakes != 0 || res.Sleeps != 0 {
		t.Fatal("no transitions expected without power management")
	}
}

func TestPowerWakesUnderLoad(t *testing.T) {
	tr, m := testWorkload(t, 4000, 207)
	// Compress heavily: the controller must scale the active set up.
	for i := range tr.Requests {
		tr.Requests[i].Time /= 400
	}
	cl, err := New(Config{
		Params: smallParams(8, 4, 2),
		Policy: policy.NewLARD(policy.Thresholds{}),
		Miner:  m,
		Power: PowerParams{Enabled: true, Interval: 20 * time.Millisecond,
			TargetLoad: 4, WakeLatency: 10 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Completed != int64(len(tr.Requests)) {
		t.Fatalf("completed %d of %d", res.Metrics.Completed, len(tr.Requests))
	}
	if res.Wakes == 0 {
		t.Fatal("bursty load should trigger wake-ups")
	}
}

func TestPowerNeverRoutesToSleepingBackend(t *testing.T) {
	tr, m := testWorkload(t, 2000, 211)
	cl, err := New(Config{
		Params: smallParams(6, 4, 2),
		Policy: policy.NewWRR(6), // load-blind: relies on the reroute guard
		Miner:  m,
		Power:  PowerParams{Enabled: true, Interval: 100 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Completed != int64(len(tr.Requests)) {
		t.Fatalf("completed %d of %d", res.Metrics.Completed, len(tr.Requests))
	}
	if res.Metrics.Failed != 0 {
		t.Fatalf("%d requests failed under power management", res.Metrics.Failed)
	}
}

func TestPowerParamsDefaults(t *testing.T) {
	p := PowerParams{Enabled: true}.withDefaults()
	if p.Interval != time.Second || p.TargetLoad != 16 ||
		p.WakeLatency != 300*time.Millisecond ||
		p.ActivePower != 1.0 || p.HibernatePower != 0.05 {
		t.Fatalf("defaults wrong: %+v", p)
	}
}

func TestPowerWithFailures(t *testing.T) {
	tr, m := testWorkload(t, 2000, 213)
	mid := tr.Requests[len(tr.Requests)/2].Time
	cl, err := New(Config{
		Params:   smallParams(4, 4, 2),
		Policy:   policy.NewLARD(policy.Thresholds{}),
		Miner:    m,
		Power:    PowerParams{Enabled: true, Interval: 100 * time.Millisecond},
		Failures: []Failure{{Server: 0, At: mid}},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Completed != int64(len(tr.Requests)) {
		t.Fatalf("completed %d of %d with crash + power mgmt", res.Metrics.Completed, len(tr.Requests))
	}
}

// TestPowerWakesForAFailover: the lightly loaded trace leaves backend 0
// the only one awake; it crashes just after the core routed a request
// to it. The failover finds nothing available and must wake a sleeper,
// as Route does, rather than lose the request.
func TestPowerWakesForAFailover(t *testing.T) {
	cfg := func(m *mining.Miner) Config {
		return Config{
			Params: smallParams(4, 4, 2),
			Policy: policy.NewLARD(policy.Thresholds{}),
			Miner:  m,
			Power:  PowerParams{Enabled: true, Interval: 100 * time.Millisecond},
		}
	}
	// A fault-free run finds when a request past mid-trace goes to 0.
	tr, m := testWorkload(t, 2000, 213)
	mid := tr.Requests[len(tr.Requests)/2].Time
	var probe *Cluster
	var at time.Duration
	c := cfg(m)
	c.Recorder = func(r dispatch.Record) {
		if at == 0 && r.Server == 0 && probe.eng.Now() > mid {
			if probe.power.asleepCount() != 3 {
				t.Fatalf("asleep %v at the routing, want only backend 0 awake", probe.power.asleep)
			}
			at = probe.eng.Now()
		}
	}
	probe, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := probe.Run(tr); err != nil {
		t.Fatal(err)
	}
	if at == 0 {
		t.Fatal("no request went to backend 0 after mid-trace")
	}

	tr, m = testWorkload(t, 2000, 213)
	c = cfg(m)
	c.Failures = []Failure{{Server: 0, At: at + time.Nanosecond}}
	cl, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Failovers != 1 || res.Metrics.Failed != 0 || res.Metrics.Completed != int64(len(tr.Requests)) {
		t.Fatalf("failovers %d failed %d completed %d of %d; want the one caught request failed over",
			res.Metrics.Failovers, res.Metrics.Failed, res.Metrics.Completed, len(tr.Requests))
	}
}
