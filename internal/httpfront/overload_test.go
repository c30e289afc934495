package httpfront

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"prord/internal/dispatch"
	"prord/internal/health"
	"prord/internal/overload"
)

// holdBackend serves testFiles-style 200s but parks requests for paths
// in hold until release is closed, pinning them in flight.
type holdBackend struct {
	mu      sync.Mutex
	hold    map[string]bool
	release chan struct{}
}

func newHoldBackend(hold ...string) *holdBackend {
	b := &holdBackend{hold: make(map[string]bool), release: make(chan struct{})}
	for _, p := range hold {
		b.hold[p] = true
	}
	return b
}

func (b *holdBackend) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	b.mu.Lock()
	held := b.hold[r.URL.Path]
	release := b.release
	b.mu.Unlock()
	if held {
		<-release
	}
	io.WriteString(w, "ok")
}

func (b *holdBackend) Release() {
	b.mu.Lock()
	defer b.mu.Unlock()
	select {
	case <-b.release:
	default:
		close(b.release)
	}
}

// overloadCluster builds a distributor over custom handlers.
func overloadCluster(t *testing.T, cfg Config, handlers ...http.Handler) (*Distributor, *httptest.Server) {
	t.Helper()
	for _, h := range handlers {
		srv := httptest.NewServer(h)
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
	return d, front
}

// freshClient returns a client with its own connection pool, i.e. a new
// front-end session (sessions key on RemoteAddr).
func freshClient(t *testing.T) *http.Client {
	t.Helper()
	tr := &http.Transport{}
	t.Cleanup(tr.CloseIdleConnections)
	return &http.Client{Transport: tr}
}

// waitInFlight polls until the overload layer sees n admitted requests.
func waitInFlight(t *testing.T, d *Distributor, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if ov := d.Overload(); ov != nil && ov.InFlight >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("never saw %d requests in flight", n)
}

// TestOverloadAdmissionShedsAtCritical pins one request in a
// single-backend cluster sized for one in-flight request; the next
// demand request must be refused with 503 + Retry-After + ShedHeader
// and counted as shed, and traffic must flow again after the pinned
// request completes.
func TestOverloadAdmissionShedsAtCritical(t *testing.T) {
	back := newHoldBackend("/slow.html")
	d, front := overloadCluster(t, Config{
		Overload: &overload.Config{CapacityPerBackend: 1, QueueLimit: -1, MinHold: time.Minute},
	}, back)

	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := freshClient(t).Get(front.URL + "/slow.html")
		if err != nil {
			t.Errorf("held request failed: %v", err)
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	waitInFlight(t, d, 1)

	resp := get(t, freshClient(t), front.URL, "/a.html")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get(ShedHeader) == "" {
		t.Error("shed 503 missing ShedHeader")
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("shed 503 missing Retry-After")
	}

	back.Release()
	<-done
	if resp := get(t, freshClient(t), front.URL, "/a.html"); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-release status = %d, want 200 (gate slot not released?)", resp.StatusCode)
	}

	st := d.Stats()
	if st.Shed != 1 {
		t.Errorf("Shed = %d, want 1", st.Shed)
	}
	if st.Requests != 3 {
		t.Errorf("Requests = %d, want 3 (shed requests are received requests)", st.Requests)
	}
	ov := d.Overload()
	if ov == nil || ov.Tier != overload.Critical {
		t.Errorf("overload state = %+v, want critical tier held by MinHold", ov)
	}
	if len(ov.Transitions) == 0 {
		t.Error("no tier transitions recorded")
	}
}

// TestOverloadQueueGrantsFreedSlot queues a request at Critical and
// checks it completes once the pinned request releases its slot.
func TestOverloadQueueGrantsFreedSlot(t *testing.T) {
	back := newHoldBackend("/slow.html")
	d, front := overloadCluster(t, Config{
		Overload: &overload.Config{
			CapacityPerBackend: 1, QueueLimit: 1,
			QueueTimeout: 5 * time.Second, MinHold: time.Minute,
		},
	}, back)

	held := make(chan struct{})
	go func() {
		defer close(held)
		resp, err := freshClient(t).Get(front.URL + "/slow.html")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	waitInFlight(t, d, 1)

	queued := make(chan int)
	go func() {
		resp, err := freshClient(t).Get(front.URL + "/a.html")
		if err != nil {
			queued <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		queued <- resp.StatusCode
	}()
	// Give the second request time to reach the accept queue, then free
	// the slot it is waiting for.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if ov := d.Overload(); ov != nil && ov.Queued == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	back.Release()
	if code := <-queued; code != http.StatusOK {
		t.Fatalf("queued request status = %d, want 200", code)
	}
	<-held
	if st := d.Stats(); st.Shed != 0 {
		t.Errorf("Shed = %d, want 0 (queued request was granted, not shed)", st.Shed)
	}
}

// TestOverloadQueueTimeoutSheds bounds the accept-queue wait: a queued
// request whose slot never frees is shed after QueueTimeout.
func TestOverloadQueueTimeoutSheds(t *testing.T) {
	back := newHoldBackend("/slow.html")
	defer func() { back.Release() }()
	d, front := overloadCluster(t, Config{
		Overload: &overload.Config{
			CapacityPerBackend: 1, QueueLimit: 1,
			QueueTimeout: 20 * time.Millisecond, MinHold: time.Minute,
		},
	}, back)

	go func() {
		resp, err := freshClient(t).Get(front.URL + "/slow.html")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	waitInFlight(t, d, 1)

	resp := get(t, freshClient(t), front.URL, "/a.html")
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get(ShedHeader) == "" {
		t.Fatalf("timed-out queued request: status %d, shed header %q",
			resp.StatusCode, resp.Header.Get(ShedHeader))
	}
	if st := d.Stats(); st.Shed != 1 {
		t.Errorf("Shed = %d, want 1", st.Shed)
	}
}

// TestOverloadEmbeddedBypassNeverShed: an in-progress session's
// embedded-object request is admitted even at Critical with a full
// gate, while a fresh session's page request is shed.
func TestOverloadEmbeddedBypassNeverShed(t *testing.T) {
	back := newHoldBackend("/slow.html")
	d, front := overloadCluster(t, Config{
		Miner: testMiner(),
		Overload: &overload.Config{
			CapacityPerBackend: 1, QueueLimit: -1, MinHold: time.Minute,
		},
	}, back)

	// Establish a session while the cluster is idle.
	session := freshClient(t)
	if resp := get(t, session, front.URL, "/a.html"); resp.StatusCode != http.StatusOK {
		t.Fatalf("page status = %d", resp.StatusCode)
	}

	// Pin the gate full so the tier is Critical with no free slot.
	go func() {
		resp, err := freshClient(t).Get(front.URL + "/slow.html")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	waitInFlight(t, d, 1)

	// The session's embedded object bypasses admission and completes.
	if resp := get(t, session, front.URL, "/a.gif"); resp.StatusCode != http.StatusOK {
		t.Fatalf("embedded object of admitted session shed: status = %d", resp.StatusCode)
	}
	// A fresh session's page is shed.
	if resp := get(t, freshClient(t), front.URL, "/b.html"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("fresh page at Critical: status = %d, want 503", resp.StatusCode)
	}
	back.Release()
	if st := d.Stats(); st.Shed != 1 {
		t.Errorf("Shed = %d, want exactly the fresh page", st.Shed)
	}
}

// TestOverloadElevatedShedsPrefetch: from Elevated up, no prefetch
// hints are generated and the suppression is counted. The proactive
// pass runs after the response completes — the same discipline as the
// simulator — so a request that itself lifts the ladder to Elevated
// has its own pass shed.
func TestOverloadElevatedShedsPrefetch(t *testing.T) {
	d, front, _ := testCluster(t, 2, Config{
		Miner:    testMiner(),
		Prefetch: true,
		Overload: &overload.Config{
			CapacityPerBackend: 100,
			ElevatedAt:         0.004, // one in-flight request crosses it
			SaturatedAt:        0.8,
			CriticalAt:         0.9,
			MinHold:            time.Minute,
		},
	})
	client := front.Client()
	// Each request lifts the tier to Elevated before it completes, and
	// MinHold keeps it there, so every proactive pass is suppressed.
	get(t, client, front.URL, "/a.html")
	get(t, client, front.URL, "/b.html")
	st := d.Stats()
	if st.PrefetchShed != 2 {
		t.Errorf("PrefetchShed = %d, want 2 (one suppressed pass per page)", st.PrefetchShed)
	}
	if st.Prefetches != 0 {
		t.Errorf("Elevated tier still generated hints: %d", st.Prefetches)
	}
	if ov := d.Overload(); ov == nil || ov.Tier != overload.Elevated {
		t.Errorf("overload state = %+v, want elevated tier held by MinHold", ov)
	}
}

// TestOverloadSaturatedStopsBundleBypass: from Saturated up the
// embedded-object dispatcher bypass stops (requests route through the
// fallback policy instead of following the session's backend).
func TestOverloadSaturatedStopsBundleBypass(t *testing.T) {
	d, front, _ := testCluster(t, 2, Config{
		Miner: testMiner(),
		Overload: &overload.Config{
			CapacityPerBackend: 100,
			ElevatedAt:         0.002,
			SaturatedAt:        0.004, // one in-flight request crosses it
			CriticalAt:         0.9,
			MinHold:            time.Minute,
		},
	})
	client := front.Client()
	get(t, client, front.URL, "/a.html") // lifts the tier to Saturated
	get(t, client, front.URL, "/a.gif")  // would bypass at Normal
	st := d.Stats()
	if st.DirectForwards != 0 {
		t.Errorf("DirectForwards = %d, want 0 (bypass must stop at Saturated)", st.DirectForwards)
	}
	if st.Dispatches != 2 {
		t.Errorf("Dispatches = %d, want 2 (both requests through the dispatcher)", st.Dispatches)
	}
}

// TestOverloadLadderClimbsUnderRisingLoad: as concurrent fresh
// sessions rise step by step past the admission capacity, the live
// ladder climbs one way to Critical, proactive work is shed before the
// first 503, and a shed is a 503 with ShedHeader, never an error.
func TestOverloadLadderClimbsUnderRisingLoad(t *testing.T) {
	const miss = 10 * time.Millisecond
	d, front := overloadCluster(t, Config{
		Miner:    testMiner(),
		Prefetch: true,
		// MinHold pins every step up, so the ladder can only climb.
		Overload: &overload.Config{CapacityPerBackend: 2, QueueLimit: -1, MinHold: time.Hour},
	}, NewDemoBackend("b0", testFiles, 1, miss), NewDemoBackend("b1", testFiles, 1, miss))

	var first503 sync.Once
	prefetchShedAtFirst503 := int64(-1)
	var shed, failed atomic.Int64
	// Capacity is 2 backends x 2 in flight, so the steps reach Elevated
	// (2), Saturated (3) and Critical (4 and more) in turn.
	for _, clients := range []int{1, 2, 3, 8} {
		var wg sync.WaitGroup
		for range clients {
			client := freshClient(t)
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, path := range []string{"/a.html", "/a.gif", "/b.html", "/b.gif"} {
					resp, err := client.Get(front.URL + path)
					if err != nil {
						failed.Add(1)
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode == http.StatusServiceUnavailable && resp.Header.Get(ShedHeader) != "" {
						first503.Do(func() { prefetchShedAtFirst503 = d.Stats().PrefetchShed })
						shed.Add(1)
						return // a refused session gives up
					}
					if resp.StatusCode != http.StatusOK {
						failed.Add(1)
					}
				}
			}()
		}
		wg.Wait()
	}

	if n := failed.Load(); n != 0 {
		t.Errorf("%d requests failed; sheds must be 503s with ShedHeader", n)
	}
	if shed.Load() == 0 {
		t.Fatal("no request shed at twice the admission capacity")
	}
	if st := d.Stats(); st.Shed != shed.Load() || st.Errors != 0 {
		t.Errorf("Shed/Errors = %d/%d, want %d/0", st.Shed, st.Errors, shed.Load())
	}
	if prefetchShedAtFirst503 <= 0 {
		t.Errorf("PrefetchShed = %d at the first 503, want proactive work shed first", prefetchShedAtFirst503)
	}
	ov := d.Overload()
	if len(ov.Transitions) == 0 {
		t.Fatal("no tier transitions recorded")
	}
	for i, tr := range ov.Transitions {
		if tr.To <= tr.From {
			t.Errorf("transition %d (%v to %v) does not climb", i, tr.From, tr.To)
		}
		if i > 0 && tr.At < ov.Transitions[i-1].At {
			t.Errorf("transition offsets out of order: %v", ov.Transitions)
		}
	}
	if last := ov.Transitions[len(ov.Transitions)-1].To; last != overload.Critical || ov.Tier != overload.Critical {
		t.Errorf("ladder topped out at %v (tier %v), want critical", last, ov.Tier)
	}
}

// TestOverloadUnavailableFastFail: with every breaker open the
// front-end answers 503 immediately (no ShedHeader — the cluster is
// dead, not overloaded) instead of feeding the dead backend.
func TestOverloadUnavailableFastFail(t *testing.T) {
	bad := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
	})
	d, front := overloadCluster(t, Config{
		Health:  health.Config{Threshold: 1, Backoff: time.Hour},
		Retries: -1,
	}, bad)
	client := freshClient(t)
	// First request trips the single breaker (raw 500 reaches the client
	// with retries disabled).
	if resp := get(t, client, front.URL, "/a.html"); resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("first status = %d, want 500", resp.StatusCode)
	}
	resp := get(t, client, front.URL, "/a.html")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("all-breakers-open status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get(ShedHeader) != "" {
		t.Error("unavailable 503 must not carry ShedHeader")
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("unavailable 503 missing Retry-After")
	}
	st := d.Stats()
	if st.Unavailable != 1 {
		t.Errorf("Unavailable = %d, want 1", st.Unavailable)
	}
	if st.Requests != 2 {
		t.Errorf("Requests = %d, want 2 (refused requests are still received)", st.Requests)
	}
	if sum := st.PerBackend[0]; sum != 1 {
		t.Errorf("PerBackend[0] = %d, want 1 (refusal never proxied)", sum)
	}
}

// TestPrefetchHintsDroppedCounted pins the satellite fix for the
// silent default-case drop: hints past the queue capacity increment
// PrefetchHintsDropped.
func TestPrefetchHintsDroppedCounted(t *testing.T) {
	u, _ := url.Parse("http://localhost:1")
	d, err := New(Config{Backends: []*url.URL{u}})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	// White-box: install a tiny hint queue with no drainer so the second
	// hint must hit the default case.
	d.hmu.Lock()
	d.prefetch = make(chan prefetchJob, 1)
	d.hmu.Unlock()
	d.enqueuePrefetch(dispatch.Plan{Server: 0, Bundle: []string{"/a.gif", "/b.gif"}})
	if st := d.Stats(); st.PrefetchHintsDropped != 1 {
		t.Fatalf("PrefetchHintsDropped = %d, want 1", st.PrefetchHintsDropped)
	}
}

// TestClusterStatsExposeOverload checks /_prord/cluster carries the
// overload block and the hint-drop counter.
func TestClusterStatsExposeOverload(t *testing.T) {
	d, front, backs := testCluster(t, 2, Config{
		Miner:    testMiner(),
		Overload: &overload.Config{},
	})
	get(t, front.Client(), front.URL, "/a.html")
	srv := httptest.NewServer(ClusterStatsHandler(d, backs))
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var payload struct {
		Distributor map[string]any `json:"distributor"`
		Overload    map[string]any `json:"overload"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		t.Fatal(err)
	}
	if _, ok := payload.Distributor["prefetch_hints_dropped"]; !ok {
		t.Error("cluster stats missing prefetch_hints_dropped")
	}
	if tier, ok := payload.Overload["tier"]; !ok || tier == "" {
		t.Errorf("cluster stats overload block = %v, want a tier", payload.Overload)
	}
	// And with the layer disabled the block is absent entirely.
	d2, front2, backs2 := testCluster(t, 1, Config{})
	get(t, front2.Client(), front2.URL, "/a.html")
	srv2 := httptest.NewServer(ClusterStatsHandler(d2, backs2))
	defer srv2.Close()
	resp2, err := http.Get(srv2.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	raw, _ := io.ReadAll(resp2.Body)
	var m map[string]json.RawMessage
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if _, ok := m["overload"]; ok {
		t.Error("overload block present with the layer disabled")
	}
}
