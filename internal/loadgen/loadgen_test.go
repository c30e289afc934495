package loadgen

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"prord/internal/trace"
)

// smallConfig is a campaign small enough to run live under -race in CI.
func smallConfig(mode Mode) Config {
	return Config{
		Mode:        mode,
		Policies:    []string{"PRORD"},
		Backends:    2,
		Rate:        400,
		Workers:     4,
		Sessions:    30,
		Concurrency: 8,
		Think:       time.Millisecond,
		Duration:    700 * time.Millisecond,
		Warmup:      200 * time.Millisecond,
		Seed:        1,
		Preset:      trace.PresetSynthetic,
		Scale:       0.05,
		CacheBytes:  1 << 20,
		MissLatency: 2 * time.Millisecond,
		CompareSim:  true,
	}
}

func TestParseMode(t *testing.T) {
	for in, want := range map[string]Mode{"open": OpenLoop, "Closed": ClosedLoop, " OPEN ": OpenLoop} {
		got, err := ParseMode(in)
		if err != nil || got != want {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseMode("loop"); err == nil {
		t.Error("ParseMode(loop) should fail")
	}
	if _, err := ParsePreset("nope"); err == nil {
		t.Error("ParsePreset(nope) should fail")
	}
	if p, err := ParsePreset("WorldCup"); err != nil || p != trace.PresetWorldCup {
		t.Errorf("ParsePreset(WorldCup) = %v, %v", p, err)
	}
}

func TestCanonicalPolicy(t *testing.T) {
	for in, want := range map[string]string{"prord": "PRORD", "wrr": "WRR", "lard/r": "LARD/R"} {
		got, err := CanonicalPolicy(in)
		if err != nil || got != want {
			t.Errorf("CanonicalPolicy(%q) = %q, %v; want %q", in, got, err, want)
		}
	}
	if _, err := CanonicalPolicy("round-robin"); err == nil ||
		!strings.Contains(err.Error(), "PRORD") {
		t.Errorf("CanonicalPolicy(round-robin) = %v; want error listing valid names", err)
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Policies = nil },
		func(c *Config) { c.Policies = []string{"bogus"} },
		func(c *Config) { c.Backends = -1 },
		func(c *Config) { c.Rate = 0; c.Mode = OpenLoop },
		func(c *Config) { c.Warmup = c.Duration },
		func(c *Config) { c.Warmup = 2 * c.Duration },
		func(c *Config) { c.Mode = ClosedLoop; c.Sessions = -5 },
		func(c *Config) { c.Mode = Mode(99) },
		func(c *Config) { c.Scale = -1 },
		func(c *Config) { c.TrainFraction = 1.5 },
		func(c *Config) { c.CacheBytes = -1 },
	}
	for i, mutate := range bad {
		cfg := smallConfig(OpenLoop).withDefaults()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted %+v", i, cfg)
		}
	}
	if err := smallConfig(OpenLoop).withDefaults().Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	// New must reject without touching the network.
	if _, err := New(Config{Mode: OpenLoop, Policies: []string{"PRORD"}}); err == nil {
		t.Error("New should reject open-loop config without a rate")
	}
}

func TestScheduleDeterminism(t *testing.T) {
	for _, mode := range []Mode{OpenLoop, ClosedLoop} {
		a, err := New(smallConfig(mode))
		if err != nil {
			t.Fatal(err)
		}
		b, err := New(smallConfig(mode))
		if err != nil {
			t.Fatal(err)
		}
		wa, wb := a.Workload(), b.Workload()
		if wa != wb {
			t.Errorf("%v: workloads differ:\n%+v\n%+v", mode, wa, wb)
		}
		if wa.Scheduled == 0 || wa.Digest == "" {
			t.Errorf("%v: empty schedule: %+v", mode, wa)
		}
		other := smallConfig(mode)
		other.Seed = 2
		c, err := New(other)
		if err != nil {
			t.Fatal(err)
		}
		if c.Workload().Digest == wa.Digest {
			t.Errorf("%v: different seeds produced equal digest %s", mode, wa.Digest)
		}
	}
}

func TestOpenScheduleShape(t *testing.T) {
	h, err := New(smallConfig(OpenLoop))
	if err != nil {
		t.Fatal(err)
	}
	if len(h.open) != 4 {
		t.Fatalf("got %d worker schedules, want 4", len(h.open))
	}
	total := 0
	for w, sched := range h.open {
		var last time.Duration = -1
		for _, a := range sched {
			if a.at < last {
				t.Fatalf("worker %d schedule not sorted: %v after %v", w, a.at, last)
			}
			if a.at >= h.cfg.Duration {
				t.Fatalf("worker %d arrival %v beyond duration %v", w, a.at, h.cfg.Duration)
			}
			if a.idx < 0 || a.idx >= len(h.eval.Requests) {
				t.Fatalf("worker %d arrival index %d out of range", w, a.idx)
			}
			last = a.at
		}
		total += len(sched)
	}
	// Poisson at 400 req/s over 0.7s: expect ~280 arrivals; allow wide
	// slack but catch gross rate errors.
	if total < 140 || total > 560 {
		t.Fatalf("scheduled %d requests for rate 400 over 700ms", total)
	}
}

func TestSimTraceValid(t *testing.T) {
	for _, mode := range []Mode{OpenLoop, ClosedLoop} {
		h, err := New(smallConfig(mode))
		if err != nil {
			t.Fatal(err)
		}
		tr := h.simTrace()
		if err := tr.Validate(); err != nil {
			t.Fatalf("%v: sim trace invalid: %v", mode, err)
		}
		if len(tr.Requests) != h.Workload().Scheduled {
			t.Fatalf("%v: sim trace has %d requests, schedule %d", mode, len(tr.Requests), h.Workload().Scheduled)
		}
	}
}

func checkRun(t *testing.T, h *Harness, res *Result) {
	t.Helper()
	if len(res.Runs) != 1 {
		t.Fatalf("got %d runs, want 1", len(res.Runs))
	}
	run := &res.Runs[0]
	if run.Name != "PRORD" {
		t.Errorf("run name = %q", run.Name)
	}
	if run.Errors != 0 {
		t.Errorf("run had %d errors", run.Errors)
	}
	if run.Requests == 0 {
		t.Fatal("no measured requests")
	}
	if run.Latency.Count != run.Requests {
		t.Errorf("latency count %d != requests %d", run.Latency.Count, run.Requests)
	}
	if run.ThroughputRPS <= 0 {
		t.Errorf("throughput = %v", run.ThroughputRPS)
	}
	if run.Latency.P50NS <= 0 || run.Latency.P99NS < run.Latency.P50NS {
		t.Errorf("latency summary inconsistent: %+v", run.Latency)
	}
	if run.FrontLatency == nil || run.FrontLatency.Count == 0 {
		t.Error("front latency missing")
	}
	if len(run.Backends) != h.cfg.Backends {
		t.Fatalf("got %d backend samples, want %d", len(run.Backends), h.cfg.Backends)
	}
	var perBackend int64
	for _, b := range run.Backends {
		perBackend += b.Requests
	}
	if want := run.Requests + run.WarmupRequests; perBackend != want {
		t.Errorf("per-backend demand total %d != completions %d", perBackend, want)
	}
	if run.LoadSkew < 1 {
		t.Errorf("load skew %v < 1", run.LoadSkew)
	}
	if run.Sim == nil {
		t.Fatal("sim comparison missing")
	}
	if run.Sim.ThroughputRPS <= 0 || run.Sim.MeanUS <= 0 {
		t.Errorf("sim block empty: %+v", run.Sim)
	}
}

func TestOpenLoopLive(t *testing.T) {
	h, err := New(smallConfig(OpenLoop))
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.RunAll()
	if err != nil {
		t.Fatal(err)
	}
	checkRun(t, h, res)
	run := &res.Runs[0]
	// Open loop: completions partition the deterministic schedule.
	if got := run.Requests + run.WarmupRequests + run.Errors; got != int64(res.Workload.Scheduled) {
		t.Errorf("completions+errors = %d, scheduled %d", got, res.Workload.Scheduled)
	}
	var table bytes.Buffer
	if err := res.WriteTable(&table); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"PRORD", "mode=open", "vs sim"} {
		if !strings.Contains(table.String(), want) {
			t.Errorf("table missing %q:\n%s", want, table.String())
		}
	}
}

// TestOpenLoopLatencyFromDueTime pins what an open-loop sample means:
// completion minus the scheduled arrival. One worker offers ten
// requests due at once to a front that takes 20ms each, so the last
// one queues behind nine others; timed from the send, every sample
// would read one service time and the backlog would vanish.
func TestOpenLoopLatencyFromDueTime(t *testing.T) {
	const service = 20 * time.Millisecond
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(service)
	}))
	defer front.Close()
	h, err := New(smallConfig(OpenLoop))
	if err != nil {
		t.Fatal(err)
	}
	h.cfg.Warmup = 0
	h.open = [][]arrival{make([]arrival, 10)}
	live := h.runOpen(&liveCluster{front: front}, time.Now())
	if live.errors != 0 || live.meas.Count() != 10 {
		t.Fatalf("%d errors, %d samples, want 0 and 10", live.errors, live.meas.Count())
	}
	if got, want := live.meas.Max(), 9*service; got < want {
		t.Errorf("slowest sample %v hides the queue: the tenth request waited at least %v", got, want)
	}
}

func TestClosedLoopLive(t *testing.T) {
	h, err := New(smallConfig(ClosedLoop))
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.RunAll()
	if err != nil {
		t.Fatal(err)
	}
	checkRun(t, h, res)
	run := &res.Runs[0]
	if got := run.Requests + run.WarmupRequests; got > int64(res.Workload.Scheduled) {
		t.Errorf("completed %d > scheduled %d", got, res.Workload.Scheduled)
	}
}

// TestArtifactStableSections runs the same campaign twice and checks the
// documented determinism contract: config, workload and sim blocks are
// byte-identical; only measured live quantities may move.
func TestArtifactStableSections(t *testing.T) {
	encode := func() (*Result, []byte) {
		h, err := New(smallConfig(OpenLoop))
		if err != nil {
			t.Fatal(err)
		}
		res, err := h.RunAll()
		if err != nil {
			t.Fatal(err)
		}
		art := res.Artifact()
		// The delta fields compare against live measurements, so only
		// the sim's own metrics are covered by the contract.
		sim := *res.Runs[0].Sim
		sim.ThroughputDeltaPct = 0
		sim.MeanLatencyDeltaPct = 0
		sections, err := json.Marshal(struct {
			Config   any
			Workload any
			Sim      any
		}{art.Config, art.Workload, sim})
		if err != nil {
			t.Fatal(err)
		}
		return res, sections
	}
	res1, s1 := encode()
	_, s2 := encode()
	if !bytes.Equal(s1, s2) {
		t.Errorf("deterministic sections differ:\n%s\n%s", s1, s2)
	}

	art := res1.Artifact()
	var buf bytes.Buffer
	if err := art.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"schema": "prord-bench/5"`, `"tool": "prord-loadgen"`,
		`"schedule_digest": "fnv64a:`, `"front_latency"`, `"sim"`} {
		if !strings.Contains(out, want) {
			t.Errorf("artifact missing %q", want)
		}
	}
	if strings.Contains(out, "generated_at") {
		t.Error("unstamped artifact should omit generated_at")
	}
	art.Stamp(time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC))
	buf.Reset()
	if err := art.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"generated_at": "2026-08-05T12:00:00Z"`) {
		t.Error("stamped artifact missing generated_at")
	}
}
