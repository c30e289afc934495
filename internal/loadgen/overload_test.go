package loadgen

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"prord/internal/metrics"
	"prord/internal/overload"
	"prord/internal/trace"
)

// rampConfig is a rate-ramp campaign that pushes a deliberately tiny
// cluster to roughly twice its admission capacity: 2 backends at 2
// in-flight each (plus a 2-slot queue) against 12 workers ramping from
// well under capacity to far over it. MinHold of an hour pins the
// ladder so transitions are provably monotone.
func rampConfig() Config {
	return Config{
		Mode:        OpenLoop,
		Policies:    []string{"PRORD"},
		Backends:    2,
		Rate:        80,
		RampTo:      800,
		Workers:     12,
		Duration:    1500 * time.Millisecond,
		Warmup:      200 * time.Millisecond,
		Seed:        1,
		Preset:      trace.PresetSynthetic,
		Scale:       0.05,
		CacheBytes:  32 << 10,
		MissLatency: 10 * time.Millisecond,
		Overload: &overload.Config{
			CapacityPerBackend: 2,
			QueueLimit:         2,
			QueueTimeout:       5 * time.Millisecond,
			MinHold:            time.Hour,
		},
		CompareSim: true,
	}
}

func TestRampValidation(t *testing.T) {
	cfg := rampConfig().withDefaults()
	cfg.RampTo = -1
	if err := cfg.Validate(); err == nil {
		t.Error("negative ramp-to accepted")
	}
	cfg = rampConfig().withDefaults()
	cfg.Mode = ClosedLoop
	if err := cfg.Validate(); err == nil {
		t.Error("closed-loop ramp accepted")
	}
	cfg = rampConfig().withDefaults()
	cfg.Overload = &overload.Config{ElevatedAt: 0.9, SaturatedAt: 0.5}
	if err := cfg.Validate(); err == nil {
		t.Error("non-increasing overload thresholds accepted")
	}
	if err := rampConfig().withDefaults().Validate(); err != nil {
		t.Fatalf("valid ramp config rejected: %v", err)
	}
}

// TestRampScheduleDeterministic is the seeded-rate-ramp reproducibility
// contract: same seed, same schedule (digest and all); different seed or
// different ramp target, different schedule. The kept arrivals must also
// actually ramp — the second half of the window carries several times
// the first half's load.
func TestRampScheduleDeterministic(t *testing.T) {
	a, err := New(rampConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(rampConfig())
	if err != nil {
		t.Fatal(err)
	}
	if wa, wb := a.Workload(), b.Workload(); wa != wb {
		t.Errorf("same seed, different ramp workloads:\n%+v\n%+v", wa, wb)
	}
	reseeded := rampConfig()
	reseeded.Seed = 2
	c, err := New(reseeded)
	if err != nil {
		t.Fatal(err)
	}
	if c.Workload().Digest == a.Workload().Digest {
		t.Error("different seeds produced equal ramp digests")
	}
	flat := rampConfig()
	flat.RampTo = 0
	flat.Rate = 440 // same average load, no ramp
	d, err := New(flat)
	if err != nil {
		t.Fatal(err)
	}
	if d.Workload().Digest == a.Workload().Digest {
		t.Error("flat and ramped schedules produced equal digests")
	}

	var early, late int
	for _, sched := range a.open {
		for _, arr := range sched {
			if arr.at < a.cfg.Duration/2 {
				early++
			} else {
				late++
			}
		}
	}
	if late < 2*early {
		t.Errorf("schedule does not ramp: %d arrivals in first half, %d in second", early, late)
	}
}

// TestOverloadRampAcceptance is the issue's headline scenario: an
// open-loop ramp to ~2x the admission capacity. The run must stay
// error-free (sheds are not errors), shed demand via 503s, shed
// proactive work no later than the first 503 (Elevated precedes
// Critical on a monotone ladder), and the simulator run must agree
// that substantial shedding occurred (within an order of magnitude,
// not equality — the residual is the artifact's shed_delta_pct field).
func TestOverloadRampAcceptance(t *testing.T) {
	h, err := New(rampConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.RunAll()
	if err != nil {
		t.Fatal(err)
	}
	run := &res.Runs[0]
	if run.Errors != 0 {
		t.Errorf("Errors = %d, want 0 (sheds must not be classified as errors)", run.Errors)
	}
	if run.Shed == 0 {
		t.Fatal("no requests shed at 2x capacity")
	}
	// Shed requests still partition the schedule: nothing is silently lost.
	if got := run.Requests + run.WarmupRequests + run.Errors + run.Shed; got != int64(res.Workload.Scheduled) {
		t.Errorf("completions+errors+shed = %d, scheduled %d", got, res.Workload.Scheduled)
	}
	if run.PrefetchShed == 0 {
		t.Error("no prefetch hints shed before admission control kicked in")
	}
	if run.GoodputRPS <= 0 {
		t.Errorf("GoodputRPS = %v, want positive", run.GoodputRPS)
	}

	checkMonotone := func(name string, ts []metrics.TierTransition) {
		if len(ts) == 0 {
			t.Errorf("%s: no tier transitions recorded", name)
			return
		}
		rank := map[string]int{"normal": 0, "elevated": 1, "saturated": 2, "critical": 3}
		for i, tr := range ts {
			if rank[tr.To] <= rank[tr.From] {
				t.Errorf("%s: transition %d (%s→%s) descends despite MinHold", name, i, tr.From, tr.To)
			}
			if i > 0 && tr.AtMS < ts[i-1].AtMS {
				t.Errorf("%s: transition offsets not monotone: %v", name, ts)
			}
		}
		if last := ts[len(ts)-1].To; last != "critical" {
			t.Errorf("%s: ladder topped out at %q, want critical", name, last)
		}
	}
	checkMonotone("live", run.TierTransitions)

	if run.Sim == nil {
		t.Fatal("no sim comparison attached")
	}
	checkMonotone("sim", run.Sim.TierTransitions)
	if run.Sim.Shed == 0 {
		t.Fatal("simulator shed nothing on the same ramp")
	}
	if run.Sim.PrefetchShed == 0 {
		t.Error("simulator shed no proactive work")
	}
	// Both sides run the decision core's bounded accept queue, but the
	// service-time models differ, so the contract is order-of-magnitude
	// agreement, not equality; the residual is an explicit artifact field.
	ratio := float64(run.Shed) / float64(run.Sim.Shed)
	if ratio < 1.0/12 || ratio > 12 {
		t.Errorf("live shed %d vs sim shed %d outside the documented 12x tolerance",
			run.Shed, run.Sim.Shed)
	}
	if want := metrics.DeltaPct(float64(run.Shed), float64(run.Sim.Shed)); run.Sim.ShedDeltaPct != want {
		t.Errorf("shed_delta_pct = %v, want %v (live %d vs sim %d)",
			run.Sim.ShedDeltaPct, want, run.Shed, run.Sim.Shed)
	}

	var table bytes.Buffer
	if err := res.WriteTable(&table); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(table.String(), "shed=") {
		t.Errorf("table missing overload row:\n%s", table.String())
	}
}

// TestOverloadRampEmbeddedNeverShed replays the ramp schedule with a
// session-aware client loop: once a worker's session has been admitted
// (any successful response), its embedded-object requests must never be
// shed — the paper's in-progress pages finish even under admission
// control.
func TestOverloadRampEmbeddedNeverShed(t *testing.T) {
	h, err := New(rampConfig())
	if err != nil {
		t.Fatal(err)
	}
	c, err := h.startCluster("PRORD")
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()

	var mu sync.Mutex
	var shedTotal, embViolations int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := range h.open {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client := sessionClient()
			defer client.CloseIdleConnections()
			admitted := false
			var localShed, localViol int64
			for _, a := range h.open[w] {
				if d := time.Until(start.Add(a.at)); d > 0 {
					time.Sleep(d)
				}
				req := &h.eval.Requests[a.idx]
				_, shed, err := fetch(client, c.front.URL+req.Path, time.Now())
				if err != nil {
					continue
				}
				if shed {
					localShed++
					if admitted && req.Embedded {
						localViol++
					}
					continue
				}
				admitted = true
			}
			mu.Lock()
			shedTotal += localShed
			embViolations += localViol
			mu.Unlock()
		}(w)
	}
	wg.Wait()

	if shedTotal == 0 {
		t.Fatal("ramp produced no sheds; scenario did not reach overload")
	}
	if embViolations != 0 {
		t.Errorf("%d embedded-object requests of admitted sessions were shed, want 0", embViolations)
	}
}

// TestRampArtifactStableSections extends the artifact determinism
// contract to ramped, overload-controlled campaigns: config, workload
// and sim blocks stay byte-identical across runs. Live tier transitions
// are measured wall-clock quantities and are deliberately outside this
// contract; the sim's transitions are inside it.
func TestRampArtifactStableSections(t *testing.T) {
	encode := func() []byte {
		h, err := New(rampConfig())
		if err != nil {
			t.Fatal(err)
		}
		res, err := h.RunAll()
		if err != nil {
			t.Fatal(err)
		}
		art := res.Artifact()
		sim := *res.Runs[0].Sim
		sim.ThroughputDeltaPct = 0
		sim.MeanLatencyDeltaPct = 0
		sim.ShedDeltaPct = 0
		sections, err := json.Marshal(struct {
			Config   any
			Workload any
			Sim      any
		}{art.Config, art.Workload, sim})
		if err != nil {
			t.Fatal(err)
		}
		return sections
	}
	s1 := encode()
	s2 := encode()
	if !bytes.Equal(s1, s2) {
		t.Errorf("deterministic sections differ under ramp+overload:\n%s\n%s", s1, s2)
	}
	for _, want := range []string{`"ramp_to_rps":800`, `"overload":`, `"capacity_per_backend":2`} {
		if !strings.Contains(string(s1), want) {
			t.Errorf("config echo missing %s in:\n%s", want, s1)
		}
	}
}
