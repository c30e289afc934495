package cluster

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"prord/internal/dispatch"
	"prord/internal/health"
	"prord/internal/policy"
	"prord/internal/trace"
)

// fastDetector scales the detector's windows down to the compressed
// virtual timelines the sim tests run on.
func fastDetector() health.DetectorConfig {
	return health.DetectorConfig{
		Window:       32,
		MinSamples:   8,
		Hold:         20 * time.Millisecond,
		Eject:        200 * time.Millisecond,
		RecoverHold:  100 * time.Millisecond,
		EvalInterval: 5 * time.Millisecond,
	}
}

// compressedWorkload returns a time-compressed trace (plenty of
// overlap, so a slow backend actually queues) plus a PRORD base config.
func compressedWorkload(t *testing.T, requests int, seed int64, factor time.Duration) (*trace.Trace, Config) {
	t.Helper()
	tr, m := testWorkload(t, requests, seed)
	for i := range tr.Requests {
		tr.Requests[i].Time /= factor
	}
	cfg := Config{
		Params:   smallParams(4, 4, 2),
		Policy:   policy.NewPRORD(policy.Thresholds{}),
		Features: AllFeatures(),
		Miner:    m,
	}
	return tr, cfg
}

func TestGrayFailureValidation(t *testing.T) {
	mkCfg := func(f Failure) Config {
		return Config{Params: smallParams(2, 4, 2), Policy: policy.NewWRR(2),
			Failures: []Failure{f}}
	}
	bad := []Failure{
		{Server: 0, At: time.Second, Mode: Slow, Slowdown: 1},
		{Server: 0, At: time.Second, Mode: ErrRate, ErrRate: 1},
		{Server: 0, At: time.Second, Mode: ErrRate, ErrRate: 0},
		{Server: 0, At: time.Second, RecoverAt: 2 * time.Second, Mode: Flap},
		{Server: 0, At: time.Second, Mode: Flap, FlapPeriod: 50 * time.Millisecond},
	}
	for i, f := range bad {
		if _, err := New(mkCfg(f)); err == nil {
			t.Errorf("case %d: invalid gray failure %+v accepted", i, f)
		}
	}
	ok := []Failure{
		{Server: 1, At: time.Second, Mode: Slow, Slowdown: 10},
		{Server: 0, At: time.Second, Mode: ErrRate, ErrRate: 0.3},
		{Server: 1, At: time.Second, RecoverAt: 2 * time.Second, Mode: Flap, FlapPeriod: 100 * time.Millisecond},
	}
	for i, f := range ok {
		if _, err := New(mkCfg(f)); err != nil {
			t.Errorf("case %d: valid gray failure rejected: %v", i, err)
		}
	}
}

// TestNewRejectsNegativeHedgeCap: the default only replaced 0, so a
// negative cap reached the core, which read it as "uncapped".
func TestNewRejectsNegativeHedgeCap(t *testing.T) {
	cfg := Config{Params: smallParams(2, 4, 2), Policy: policy.NewWRR(2),
		Gray: &GrayConfig{Hedge: true, HedgeCap: -1}}
	if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "HedgeCap") {
		t.Fatalf("HedgeCap -1: err = %v, want an error naming HedgeCap", err)
	}
	cfg.Gray.HedgeCap = 0
	if _, err := New(cfg); err != nil {
		t.Fatalf("HedgeCap 0 (the default): %v", err)
	}
}

// TestSlowBackendEjectedAndTailCut is the sim-side acceptance check for
// the tentpole: one backend running 10x slow mid-run, identical traces,
// layer off vs on. The detector must eject the outlier, sessions must
// rebind off it, and the client tail must come in decisively.
func TestSlowBackendEjectedAndTailCut(t *testing.T) {
	const slowServer = 1
	run := func(gray *GrayConfig) *Result {
		tr, cfg := compressedWorkload(t, 4000, 211, 300)
		start := tr.Requests[len(tr.Requests)/8].Time
		cfg.Failures = []Failure{{Server: slowServer, At: start, Mode: Slow, Slowdown: 10}}
		cfg.Gray = gray
		cl, err := New(cfg)
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
		return res
	}
	off := run(nil)
	on := run(&GrayConfig{Detector: fastDetector(), Hedge: true})

	if on.Gray == nil {
		t.Fatal("Result.Gray missing with Config.Gray set")
	}
	if off.Gray != nil {
		t.Fatal("Result.Gray present with Config.Gray nil")
	}
	if on.Gray.Ejections == 0 {
		t.Fatal("10x slow backend never ejected")
	}
	if on.Gray.GrayRebinds == 0 {
		t.Error("no sessions rebound off the degraded backend")
	}
	if !on.Gray.Backends[slowServer].Degraded && on.Gray.Backends[slowServer].Ejections == 0 {
		t.Errorf("detector view: %+v — slow backend never flagged", on.Gray.Backends[slowServer])
	}
	p99Off := off.Metrics.Response.Quantile(0.99)
	p99On := on.Metrics.Response.Quantile(0.99)
	if p99On >= p99Off {
		t.Errorf("gray layer did not cut the tail: p99 off=%v on=%v", p99Off, p99On)
	}
	// The ejected backend's serve share should collapse relative to the
	// undefended run once the detector steers traffic away.
	if on.Servers[slowServer].Served >= off.Servers[slowServer].Served {
		t.Errorf("slow backend served %d with the layer on, %d off — ejection had no effect",
			on.Servers[slowServer].Served, off.Servers[slowServer].Served)
	}
}

// TestHedgingFiresWinsAndBalances exercises the deterministic sim hedge
// race: hedges fire against the slow backend's laggard serves, some
// win, and every booking is released by the end of the run.
func TestHedgingFiresWinsAndBalances(t *testing.T) {
	tr, cfg := compressedWorkload(t, 4000, 223, 300)
	start := tr.Requests[len(tr.Requests)/8].Time
	cfg.Failures = []Failure{{Server: 2, At: start, Mode: Slow, Slowdown: 20}}
	cfg.Gray = &GrayConfig{Detector: fastDetector(), Hedge: true}
	cl, err := New(cfg)
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
	g := res.Gray
	if g.HedgesFired == 0 {
		t.Fatal("no hedges fired against a 20x slow backend")
	}
	if g.HedgeWins == 0 {
		t.Error("no hedge ever beat the slow primary")
	}
	if g.HedgeWins+g.HedgeCancels != g.HedgesFired {
		t.Errorf("hedge accounting leaks: fired=%d wins=%d cancels=%d",
			g.HedgesFired, g.HedgeWins, g.HedgeCancels)
	}
	for i := range res.Servers {
		if n := cl.core.HedgeLoad(i); n != 0 {
			t.Errorf("backend %d still holds %d hedge bookings after the run", i, n)
		}
	}
	if n := cl.core.InFlightFiles(); n != 0 {
		t.Errorf("%d files still marked in flight after the run", n)
	}
}

// TestErrRateFailuresAreRetried: an intermittently erroring backend must
// not surface failures — every 503 re-enters the front-end retry path.
func TestErrRateFailuresAreRetried(t *testing.T) {
	tr, cfg := compressedWorkload(t, 3000, 227, 300)
	cfg.Failures = []Failure{{Server: 0, At: 0, Mode: ErrRate, ErrRate: 0.3}}
	cl, err := New(cfg)
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
		t.Fatalf("%d requests dropped — errrate must only cause retries", res.Metrics.Failed)
	}
	if res.Metrics.Failovers == 0 {
		t.Fatal("a 30% error rate produced no failovers")
	}
}

// TestFlapKeepsCacheAndCompletes: a flapping backend is a soft outage —
// unlike a crash its memory survives, and the run still completes.
func TestFlapKeepsCacheAndCompletes(t *testing.T) {
	tr, cfg := compressedWorkload(t, 3000, 229, 300)
	third := tr.Requests[len(tr.Requests)/3].Time
	twoThirds := tr.Requests[2*len(tr.Requests)/3].Time
	cfg.Failures = []Failure{{
		Server: 1, At: third, RecoverAt: twoThirds,
		Mode: Flap, FlapPeriod: (twoThirds - third) / 8,
	}}
	cl, err := New(cfg)
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
		t.Fatalf("%d requests dropped across a flap with three healthy peers", res.Metrics.Failed)
	}
	if res.Metrics.Failovers == 0 {
		t.Fatal("flap half-cycles caught no requests in flight")
	}
	// Soft outage: the cache survives the down half-cycles (a crash
	// would have emptied it — see TestBackendCrashAllRequestsStillComplete).
	if cl.backends[1].store.Len() == 0 {
		t.Fatal("flapping backend lost its cache — flap must not behave like a crash")
	}
}

// TestGrayRunDeterministic: the whole gray layer — detector, hedging,
// seeded errrate — replays byte-identically.
func TestGrayRunDeterministic(t *testing.T) {
	run := func() *Result {
		tr, cfg := compressedWorkload(t, 3000, 233, 300)
		mid := tr.Requests[len(tr.Requests)/2].Time
		cfg.Failures = []Failure{
			{Server: 1, At: mid, Mode: Slow, Slowdown: 10},
			{Server: 2, At: mid / 2, Mode: ErrRate, ErrRate: 0.2},
		}
		cfg.Gray = &GrayConfig{Detector: fastDetector(), Hedge: true}
		cl, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := cl.Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Metrics != b.Metrics {
		t.Fatalf("gray runs must be deterministic:\n%+v\n%+v", a.Metrics, b.Metrics)
	}
	if !reflect.DeepEqual(a.Gray, b.Gray) {
		t.Fatalf("gray stats must be deterministic:\n%+v\n%+v", a.Gray, b.Gray)
	}
}

// TestGrayLayerNoopOnHealthyCluster pins the no-fault invariant: with
// the detector enabled but nothing degraded, the decision stream is
// byte-identical to a run without the layer (hedges never fire because
// HedgeDelay needs samples and the pool never diverges enough to eject).
func TestGrayLayerNoopOnHealthyCluster(t *testing.T) {
	record := func(gray *GrayConfig) []dispatch.Record {
		tr, cfg := compressedWorkload(t, 2000, 239, 300)
		var recs []dispatch.Record
		cfg.Recorder = func(r dispatch.Record) { recs = append(recs, r) }
		cfg.Gray = gray
		cl, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Run(tr); err != nil {
			t.Fatal(err)
		}
		return recs
	}
	plain := record(nil)
	gray := record(&GrayConfig{Detector: fastDetector()})
	if len(plain) == 0 {
		t.Fatal("no decisions recorded")
	}
	if !reflect.DeepEqual(plain, gray) {
		t.Fatal("enabling the gray layer changed the decision stream on a healthy cluster")
	}
}
