package dispatch_test

// Differential test for the shared decision core: the same seeded trace
// is replayed through the discrete-event simulator and through an
// in-process live cluster (real HTTP through httpfront), and every
// routing decision the core records — backend choice, embedded
// classification, dispatch/handoff accounting, degrade-ladder tier,
// admission verdict — must be identical step for step. This is the
// contract the extraction of internal/dispatch exists to enforce:
// simulator results transfer to the live front-end because both are
// thin adapters over one decision engine. The failure arms extend the
// contract to failover: a failed attempt's retry is a decision too
// (Record.Retry), so where it went is compared like any other.

import (
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"prord/internal/cluster"
	"prord/internal/dispatch"
	"prord/internal/health"
	"prord/internal/httpfront"
	"prord/internal/mining"
	"prord/internal/overload"
	"prord/internal/policy"
	"prord/internal/randutil"
	"prord/internal/trace"
)

// diffWorkload builds a seeded synthetic workload re-spaced to one
// request per virtual second, so at most one request is ever in flight
// on either side: the sequential schedule removes all timing freedom,
// leaving the decision sequence as the only thing compared.
//
// The miner comes back as a factory, not an instance: the navigation
// tracker learns online, mutating the mined model as the replay runs,
// so sharing one miner between the two adapters would leak the first
// run's learning into the second. Mining is deterministic, so two
// calls yield independent but identical models.
func diffWorkload(t *testing.T, requests int, seed int64) (*trace.Trace, func() *mining.Miner) {
	t.Helper()
	_, full, err := trace.GeneratePreset(trace.PresetSynthetic, float64(requests)/30000.0, seed)
	if err != nil {
		t.Fatal(err)
	}
	train, eval := full.Split(0.4)
	for i := range eval.Requests {
		eval.Requests[i].Time = time.Duration(i) * time.Second
	}
	return eval, func() *mining.Miner { return mining.Mine(train, mining.Options{}) }
}

// simParams sizes backend memory so nothing is ever evicted: the
// simulator's exact residency then equals the live core's optimistic
// locality (every file served stays hot), and the two views cannot
// drift for cache-pressure reasons.
func simParams(backends int) cluster.Params {
	p := cluster.DefaultParams()
	p.Backends = backends
	p.AppMemory = 1 << 30
	p.PinnedMemory = 1 << 28
	return p
}

// recordSink collects core decision records; live requests run one at a
// time, but the goroutine handing off between client and server still
// needs the lock for safe publication.
type recordSink struct {
	mu   sync.Mutex
	recs []dispatch.Record
}

func (s *recordSink) record(r dispatch.Record) {
	s.mu.Lock()
	s.recs = append(s.recs, r)
	s.mu.Unlock()
}

func (s *recordSink) snapshot() []dispatch.Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]dispatch.Record(nil), s.recs...)
}

// normalizeConns rewrites connection ids to first-appearance order, so
// the comparison checks the session structure, not the id numbering.
// -1 (shed before a session was looked up) is preserved.
func normalizeConns(recs []dispatch.Record) []dispatch.Record {
	seen := make(map[int]int)
	out := make([]dispatch.Record, len(recs))
	for i, r := range recs {
		if r.Conn >= 0 {
			id, ok := seen[r.Conn]
			if !ok {
				id = len(seen)
				seen[r.Conn] = id
			}
			r.Conn = id
		}
		out[i] = r
	}
	return out
}

// runSim replays the trace through the simulator adapter, with the
// given backend failures injected.
func runSim(t *testing.T, tr *trace.Trace, m *mining.Miner, pol policy.Policy,
	feats cluster.Features, ov *overload.Config, backends int, faults ...cluster.Failure) []dispatch.Record {
	t.Helper()
	sink := &recordSink{}
	cl, err := cluster.New(cluster.Config{
		Params:   simParams(backends),
		Policy:   pol,
		Features: feats,
		Miner:    m,
		Overload: ov,
		Failures: faults,
		Recorder: sink.record,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Run(tr); err != nil {
		t.Fatal(err)
	}
	return sink.snapshot()
}

// faultyBackend is the live side of an injected backend failure. Once
// dead is set it answers every demand request with a 503; with errRng
// set it fails a seeded fraction of them. Probes and prefetch hints
// pass through: the simulator's failures hit demand serves only.
type faultyBackend struct {
	inner http.Handler
	dead  atomic.Bool

	mu      sync.Mutex // requests are sequential, but arrive on different goroutines
	errRng  *randutil.Source
	errRate float64
}

func (b *faultyBackend) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	demand := r.Header.Get(httpfront.ProbeHeader) == "" && r.Header.Get(httpfront.PrefetchHeader) == ""
	if demand && (b.dead.Load() || b.errRoll()) {
		http.Error(w, "injected failure", http.StatusServiceUnavailable)
		return
	}
	b.inner.ServeHTTP(w, r)
}

// errRoll draws the next seeded roll, one per demand arrival like the
// simulator's.
func (b *faultyBackend) errRoll() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.errRng != nil && b.errRng.Float64() < b.errRate
}

// liveFaults injects failures into a live replay: every backend sits
// behind a faultyBackend, which setup configures, and before runs just
// ahead of request i.
type liveFaults struct {
	health health.Config
	setup  func(backends []*faultyBackend)
	before func(i int)
}

// runLive replays the trace through the live adapter: real DemoBackends
// behind httptest servers, one keep-alive client per trace session (the
// front-end keys sessions on RemoteAddr), strictly sequential. Each
// request waits for the Observe callback, which httpfront invokes only
// after the core has recorded the completion and the proactive pass —
// so the next request cannot race the previous one's decision state.
func runLive(t *testing.T, tr *trace.Trace, m *mining.Miner, pol policy.Policy,
	prefetch bool, ov *overload.Config, backends int, faults *liveFaults) ([]dispatch.Record, *httpfront.Distributor) {
	t.Helper()
	if faults == nil {
		faults = &liveFaults{}
	}
	sink := &recordSink{}
	observed := make(chan struct{}, 1)
	cfg := httpfront.Config{
		Policy:   pol,
		Miner:    m,
		Prefetch: prefetch,
		Overload: ov,
		Health:   faults.health,
		Recorder: sink.record,
		Observe:  func(httpfront.Observation) { observed <- struct{}{} },
	}
	var fb []*faultyBackend
	for i := 0; i < backends; i++ {
		b := &faultyBackend{inner: httpfront.NewDemoBackend("b", tr.Files, 1<<30, 0)}
		fb = append(fb, b)
		srv := httptest.NewServer(b)
		t.Cleanup(srv.Close)
		u, err := url.Parse(srv.URL)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Backends = append(cfg.Backends, u)
	}
	d, err := httpfront.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	front := httptest.NewServer(d)
	t.Cleanup(front.Close)
	if faults.setup != nil {
		faults.setup(fb)
	}

	clients := make(map[int]*http.Client)
	for i, r := range tr.Requests {
		if faults.before != nil {
			faults.before(i)
		}
		c := clients[r.Session]
		if c == nil {
			transport := &http.Transport{}
			t.Cleanup(transport.CloseIdleConnections)
			c = &http.Client{Transport: transport}
			clients[r.Session] = c
		}
		resp, err := c.Get(front.URL + r.Path)
		if err != nil {
			t.Fatalf("GET %s: %v", r.Path, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		select {
		case <-observed:
		case <-time.After(5 * time.Second):
			t.Fatalf("GET %s: no observation", r.Path)
		}
	}
	return sink.snapshot(), d
}

// diffRecords asserts two normalized decision streams are identical.
func diffRecords(t *testing.T, sim, live []dispatch.Record) {
	t.Helper()
	if len(sim) != len(live) {
		t.Fatalf("decision counts differ: sim %d, live %d", len(sim), len(live))
	}
	sim, live = normalizeConns(sim), normalizeConns(live)
	mismatches := 0
	for i := range sim {
		if sim[i] != live[i] {
			t.Errorf("decision %d diverged:\n  sim:  %+v\n  live: %+v", i, sim[i], live[i])
			if mismatches++; mismatches >= 5 {
				t.Fatalf("stopping after %d divergent decisions", mismatches)
			}
		}
	}
}

// TestDifferentialPRORD replays one trace through both adapters with
// the full PRORD stack (bundle forwarding and navigation prefetch) and
// requires byte-identical decision records.
func TestDifferentialPRORD(t *testing.T) {
	tr, mine := diffWorkload(t, 700, 211)
	feats := cluster.Features{Bundle: true, NavPrefetch: true}
	sim := runSim(t, tr, mine(), policy.NewPRORD(policy.Thresholds{}), feats, nil, 4)
	live, _ := runLive(t, tr, mine(), policy.NewPRORD(policy.Thresholds{}), true, nil, 4, nil)
	if len(sim) != len(tr.Requests) {
		t.Fatalf("sim recorded %d decisions for %d requests", len(sim), len(tr.Requests))
	}
	diffRecords(t, sim, live)
}

// TestDifferentialWRR is the content-blind control: no miner, no
// proactive features, pure round-robin state in the policy.
func TestDifferentialWRR(t *testing.T) {
	tr, _ := diffWorkload(t, 500, 223)
	sim := runSim(t, tr, nil, policy.NewWRR(3), cluster.Features{}, nil, 3)
	live, _ := runLive(t, tr, nil, policy.NewWRR(3), false, nil, 3, nil)
	diffRecords(t, sim, live)
}

// TestDifferentialOverloadTier pins the degrade ladder above Normal on
// both sides: a hair-trigger Elevated threshold with a long MinHold
// means the first routed request lifts the tier and it never drops, so
// the recorded tier sequence (Normal once, Elevated after) and the
// tier-driven suppression of the proactive pass must match exactly.
func TestDifferentialOverloadTier(t *testing.T) {
	tr, mine := diffWorkload(t, 400, 227)
	feats := cluster.Features{Bundle: true, NavPrefetch: true}
	ov := func() *overload.Config {
		return &overload.Config{
			CapacityPerBackend: 100,
			ElevatedAt:         0.0001,
			SaturatedAt:        0.8,
			CriticalAt:         0.9,
			MinHold:            time.Hour,
		}
	}
	sim := runSim(t, tr, mine(), policy.NewPRORD(policy.Thresholds{}), feats, ov(), 3)
	live, _ := runLive(t, tr, mine(), policy.NewPRORD(policy.Thresholds{}), true, ov(), 3, nil)
	diffRecords(t, sim, live)
	elevated := 0
	for _, r := range sim {
		if r.Tier >= overload.Elevated {
			elevated++
		}
	}
	if elevated == 0 {
		t.Fatal("overload variant never left Normal; the tier comparison is vacuous")
	}
}

// retries returns the stream's failover records.
func retries(recs []dispatch.Record) []dispatch.Record {
	var out []dispatch.Record
	for _, r := range recs {
		if r.Retry {
			out = append(out, r)
		}
	}
	return out
}

// TestDifferentialFailStop crashes the backend serving request k while
// the request is in flight. In the simulator that is a fail-stop
// Failure just after k is routed; live, the backend starts failing
// every demand request just before k is sent, and a breaker that trips
// on one failure, never half-opens and is never probed takes it out for
// good. Both sides must retry k on the same backend, once, and route
// everything after around the corpse identically.
func TestDifferentialFailStop(t *testing.T) {
	tr, mine := diffWorkload(t, 600, 229)
	feats := cluster.Features{Bundle: true, NavPrefetch: true}
	const backends = 4
	// k opens a session, so the simulator routes it exactly at its trace
	// time plus the connection setup; of those, take the one nearest the
	// middle of the trace.
	k, seen := -1, make(map[int]bool)
	for i, r := range tr.Requests {
		if !seen[r.Session] && (k < 0 || abs(i-len(tr.Requests)/2) < abs(k-len(tr.Requests)/2)) {
			k = i
		}
		seen[r.Session] = true
	}
	healthy := runSim(t, tr, mine(), policy.NewPRORD(policy.Thresholds{}), feats, nil, backends)
	victim := healthy[k].Server

	crash := cluster.Failure{Server: victim, At: tr.Requests[k].Time + simParams(backends).ConnectionLatency + time.Microsecond}
	sim := runSim(t, tr, mine(), policy.NewPRORD(policy.Thresholds{}), feats, nil, backends, crash)
	var dead *faultyBackend
	live, d := runLive(t, tr, mine(), policy.NewPRORD(policy.Thresholds{}), true, nil, backends, &liveFaults{
		health: health.Config{Threshold: 1, Backoff: time.Hour, MaxBackoff: time.Hour},
		setup:  func(fb []*faultyBackend) { dead = fb[victim] },
		before: func(i int) {
			if i == k {
				dead.dead.Store(true)
			}
		},
	})
	diffRecords(t, sim, live)

	rs := retries(sim)
	if len(rs) != 1 || sim[k+1] != rs[0] || rs[0].Path != tr.Requests[k].Path || rs[0].Server == victim {
		t.Fatalf("want one retry of request %d (%s) off backend %d right after it, got %+v",
			k, tr.Requests[k].Path, victim, rs)
	}
	for _, r := range sim[k+1:] {
		if r.Server == victim {
			t.Fatalf("decision %+v routed to the crashed backend %d", r, victim)
		}
	}
	if h := d.Health()[victim]; h.Trips != 1 {
		t.Fatalf("victim breaker: %+v, want one trip", h)
	}
}

// TestDifferentialErrRate fails a seeded fraction of one backend's
// demand requests on both sides — the simulator's ErrRate mode, and
// live a backend answering 503 on the same per-arrival rolls — at a
// rate where no live breaker trips (the simulator has no breaker, so a
// trip would be a difference of substrate, not of decision). Every
// failed attempt's retry must land on the same backend on both sides.
// WRR keeps routing blind to the locality claim a live 5xx withdraws.
func TestDifferentialErrRate(t *testing.T) {
	tr, _ := diffWorkload(t, 600, 233)
	const backends, sick, rate = 3, 1, 0.15
	sim := runSim(t, tr, nil, policy.NewWRR(backends), cluster.Features{}, nil, backends,
		cluster.Failure{Server: sick, Mode: cluster.ErrRate, ErrRate: rate})
	live, d := runLive(t, tr, nil, policy.NewWRR(backends), false, nil, backends, &liveFaults{
		setup: func(fb []*faultyBackend) {
			// The simulator's per-backend errrate stream.
			fb[sick].errRng, fb[sick].errRate = randutil.New(0x677261+sick), rate
		},
	})
	for i, h := range d.Health() {
		if h.Trips != 0 {
			t.Fatalf("backend %d breaker tripped (%+v): the arm compares no breaker", i, h)
		}
	}
	diffRecords(t, sim, live)
	rs := retries(sim)
	if len(rs) == 0 {
		t.Fatal("no attempt failed over; the arm compares nothing")
	}
	for _, r := range rs {
		if r.Server == sick {
			t.Fatalf("retry %+v went back to the failing backend", r)
		}
	}
}

func abs(n int) int {
	if n < 0 {
		return -n
	}
	return n
}
