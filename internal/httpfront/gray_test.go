package httpfront

import (
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"prord/internal/health"
	"prord/internal/overload"
	"prord/internal/policy"
)

// slowable wraps a demo backend with a switchable pre-delay — the live
// tests' stand-in for the simulator's Slow gray failure.
// The delay aborts early when the request is canceled so a hedged
// loser's connection releases promptly.
type slowable struct {
	h     http.Handler
	delay atomic.Int64
}

func (s *slowable) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if d := time.Duration(s.delay.Load()); d > 0 && r.Header.Get(ProbeHeader) == "" {
		select {
		case <-time.After(d):
		case <-r.Context().Done():
		}
	}
	s.h.ServeHTTP(w, r)
}

// grayCluster spins up n delayable demo backends plus a distributor.
func grayCluster(t *testing.T, n int, cfg Config) (*Distributor, *httptest.Server, []*slowable) {
	t.Helper()
	var slows []*slowable
	for i := 0; i < n; i++ {
		s := &slowable{h: NewDemoBackend("b"+strconv.Itoa(i), testFiles, 1<<20, 0)}
		slows = append(slows, s)
		srv := httptest.NewServer(s)
		t.Cleanup(srv.Close)
		u, err := url.Parse(srv.URL)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Backends = append(cfg.Backends, u)
	}
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	front := httptest.NewServer(d)
	t.Cleanup(front.Close)
	return d, front, slows
}

// liveDetector scales the detector's windows down to test timescales.
func liveDetector() health.DetectorConfig {
	return health.DetectorConfig{
		Window:       32,
		MinSamples:   8,
		Hold:         25 * time.Millisecond,
		Eject:        2 * time.Second,
		RecoverHold:  time.Second,
		EvalInterval: time.Millisecond,
	}
}

// TestSlowBackendEjectedAndSessionsRebound is the live acceptance check
// for the detection layer: one backend turns 40ms-slow mid-run (it
// still answers 200, so breakers never see it), and the detector must
// eject it, keep new sessions off it, and progressively rebind the
// sessions already pinned to it.
func TestSlowBackendEjectedAndSessionsRebound(t *testing.T) {
	d, front, slows := grayCluster(t, 3, Config{
		Policy: policy.NewWRR(3),
		Gray:   &GrayConfig{Detector: liveDetector()},
	})
	// One keep-alive session pinned per backend (WRR hands them out in
	// order); pinned[2] will be stranded on the slow backend.
	pinned := make([]*http.Client, 3)
	for i := range pinned {
		pinned[i] = &http.Client{Transport: &http.Transport{}}
		get(t, pinned[i], front.URL, "/a.html")
	}
	// Fresh-connection traffic spreads across the pool and feeds the
	// detector's windows.
	fresh := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	for i := 0; i < 30; i++ {
		get(t, fresh, front.URL, "/a.html")
	}
	slows[2].delay.Store(int64(40 * time.Millisecond))
	deadline := time.Now().Add(10 * time.Second)
	for d.Gray().Ejections == 0 && time.Now().Before(deadline) {
		get(t, fresh, front.URL, "/a.html")
	}
	g := d.Gray()
	if g.Ejections == 0 {
		t.Fatal("40ms-slow backend never ejected")
	}
	for i, b := range g.Backends {
		if b.Degraded != (i == 2) {
			t.Fatalf("detector view %+v, want backend 2 alone degraded", g.Backends)
		}
	}
	// Bound sessions rebind off the ejected backend on their next
	// request rather than waiting out the outage.
	for i := range pinned {
		get(t, pinned[i], front.URL, "/a.html")
	}
	if d.Gray().GrayRebinds == 0 {
		t.Fatal("pinned session never rebound off the degraded backend")
	}
	// New sessions avoid it while the ejection holds.
	for i := 0; i < 9; i++ {
		resp := get(t, fresh, front.URL, "/a.html")
		if resp.Header.Get(BackendHeader) == "2" {
			t.Fatal("new session routed to an ejected backend")
		}
	}
}

// TestHedgedRequestsRescueSlowBackend exercises the live hedge race: a
// 75ms-slow backend's requests are rescued by backups that answer from
// a healthy replica, first response wins, and every hedge booking is
// balanced out by the end.
func TestHedgedRequestsRescueSlowBackend(t *testing.T) {
	d, front, slows := grayCluster(t, 3, Config{
		Policy: policy.NewWRR(3),
		Gray:   &GrayConfig{Detector: liveDetector(), Hedge: true},
	})
	// Three keep-alive sessions, one per backend; warm every latency
	// window past MinSamples so the hedge delay publishes.
	clients := make([]*http.Client, 3)
	for i := range clients {
		clients[i] = &http.Client{Transport: &http.Transport{}}
	}
	for i := 0; i < 10; i++ {
		for _, c := range clients {
			get(t, c, front.URL, "/a.html")
		}
	}
	if d.core.HedgeDelay("/") <= 0 {
		t.Fatal("hedge delay not published after warmup")
	}
	slows[2].delay.Store(int64(75 * time.Millisecond))
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		for _, c := range clients {
			resp := get(t, c, front.URL, "/a.html")
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status = %d under hedging", resp.StatusCode)
			}
		}
		if g := d.Gray(); g.HedgeWins > 0 {
			break
		}
	}
	g := d.Gray()
	if g.HedgesFired == 0 {
		t.Fatal("no hedges fired against a 75ms-slow backend")
	}
	if g.HedgeWins == 0 {
		t.Fatal("no hedge ever beat the slow primary")
	}
	if g.HedgeWins+g.HedgeCancels != g.HedgesFired {
		t.Fatalf("hedge accounting leaks: %+v", g)
	}
	for i := 0; i < 3; i++ {
		if n := d.Core().HedgeLoad(i); n != 0 {
			t.Fatalf("backend %d still holds %d hedge bookings", i, n)
		}
	}
}

// TestDeadlineBudgetCutsLostCause: with a deadline budget configured, a
// request to a backend that will not answer inside the budget fails
// fast instead of holding the client for the backend's full latency.
func TestDeadlineBudgetCutsLostCause(t *testing.T) {
	_, front, slows := grayCluster(t, 1, Config{
		Deadline: 30 * time.Millisecond,
	})
	slows[0].delay.Store(int64(300 * time.Millisecond))
	start := time.Now()
	resp, err := http.Get(front.URL + "/a.html")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status = %d, want 502", resp.StatusCode)
	}
	if elapsed >= 300*time.Millisecond {
		t.Fatalf("deadline budget did not cut the request short: %v", elapsed)
	}
}

func TestScaledDeadline(t *testing.T) {
	base := 100 * time.Millisecond
	cases := []struct {
		tier overload.Tier
		want time.Duration
	}{
		{overload.Normal, base},
		{overload.Elevated, base},
		{overload.Saturated, base / 2},
		{overload.Critical, base / 4},
	}
	for _, c := range cases {
		if got := scaledDeadline(base, c.tier); got != c.want {
			t.Errorf("scaledDeadline(%v, %v) = %v, want %v", base, c.tier, got, c.want)
		}
	}
	if got := scaledDeadline(0, overload.Critical); got != 0 {
		t.Errorf("scaledDeadline(0, Critical) = %v, want 0 (disabled)", got)
	}
}

// TestHedgeCancellationLeaksNeither drives the live hedge race through
// both finishing orders — backup beats a slow primary (the primary's
// transfer is canceled) and primary beats a slow backup (the backup is
// canceled) — and then checks that nothing leaked: every hedge booking
// released, the accounting exact, and the goroutine count back at its
// baseline. Hold is effectively infinite so ejection never interferes
// and every request keeps racing.
func TestHedgeCancellationLeaksNeither(t *testing.T) {
	det := liveDetector()
	det.Hold = time.Hour // detection off: this test is about the race itself
	d, front, slows := grayCluster(t, 3, Config{
		Policy: policy.NewWRR(3),
		Gray:   &GrayConfig{Detector: det, Hedge: true},
	})
	// Warm every window with fast responses so the hedge delay is tiny
	// and fires on essentially every subsequent request.
	clients := make([]*http.Client, 3)
	for i := range clients {
		clients[i] = &http.Client{Transport: &http.Transport{}}
	}
	for i := 0; i < 10; i++ {
		for _, c := range clients {
			get(t, clients[0], front.URL, "/a.html")
			get(t, c, front.URL, "/a.html")
		}
	}
	if d.core.HedgeDelay("/") <= 0 {
		t.Fatal("hedge delay not published after warmup")
	}
	baseline := runtime.NumGoroutine()

	// Order A: primary slow, backup fast — the backup wins, the
	// primary's transfer is canceled mid-copy.
	// Order B: every backend equally moderate — the primary usually
	// commits first and the fired backup is canceled.
	slows[2].delay.Store(int64(50 * time.Millisecond))
	slows[0].delay.Store(int64(3 * time.Millisecond))
	slows[1].delay.Store(int64(3 * time.Millisecond))
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		for _, c := range clients {
			resp := get(t, c, front.URL, "/a.html")
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status = %d under hedging", resp.StatusCode)
			}
		}
		if g := d.Gray(); g.HedgeWins > 0 && g.HedgeCancels > 0 {
			break
		}
	}

	g := d.Gray()
	if g.HedgeWins == 0 {
		t.Fatal("order A never happened: no backup beat the slow primary")
	}
	if g.HedgeCancels == 0 {
		t.Fatal("order B never happened: no primary beat its backup")
	}
	if g.HedgeWins+g.HedgeCancels != g.HedgesFired {
		t.Fatalf("hedge accounting leaks: %+v", g)
	}
	for i := 0; i < 3; i++ {
		if n := d.Core().HedgeLoad(i); n != 0 {
			t.Fatalf("backend %d still holds %d hedge bookings", i, n)
		}
	}
	// Leak check: once in-flight work settles, the goroutine count must
	// return to the pre-storm baseline (idle keep-alive readers allowed
	// a little slack, hence the tolerance and the settle loop).
	settled := time.Now().Add(5 * time.Second)
	for time.Now().Before(settled) {
		if runtime.NumGoroutine() <= baseline+6 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	buf := make([]byte, 1<<16)
	t.Fatalf("goroutines leaked: baseline %d, now %d\n%s",
		baseline, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
}
