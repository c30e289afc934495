package httpfront

import (
	"bufio"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"prord/internal/health"
	"prord/internal/policy"
)

// killableBackend wraps a DemoBackend with a kill switch and a demand
// arrival counter: the live analogue of the simulator's fail-stop crash.
// While down it answers everything with 503. Probes and prefetch hints
// are not counted as demand.
type killableBackend struct {
	inner  *DemoBackend
	up     atomic.Bool
	demand atomic.Int64
}

func newKillableBackend(name string) *killableBackend {
	k := &killableBackend{inner: NewDemoBackend(name, testFiles, 1<<20, 0)}
	k.up.Store(true)
	return k
}

func (k *killableBackend) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Header.Get(ProbeHeader) == "" && r.Header.Get(PrefetchHeader) == "" {
		k.demand.Add(1)
	}
	if !k.up.Load() {
		http.Error(w, "killed", http.StatusServiceUnavailable)
		return
	}
	k.inner.ServeHTTP(w, r)
}

// killableCluster is testCluster over killable backends.
func killableCluster(t *testing.T, n int, cfg Config) (*Distributor, *httptest.Server, []*killableBackend) {
	t.Helper()
	var ks []*killableBackend
	for i := 0; i < n; i++ {
		k := newKillableBackend("b" + strconv.Itoa(i))
		ks = append(ks, k)
		srv := httptest.NewServer(k)
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
	return d, front, ks
}

// TestFailoverMasksBackendCrash is the live counterpart of the simulator's
// TestBackendCrashCausesFailovers: killing one of three backends mid-run
// must stay invisible to clients (at most one retry per request), count
// failovers, and — once the breaker trips — keep all demand off the
// crashed backend.
func TestFailoverMasksBackendCrash(t *testing.T) {
	d, front, ks := killableCluster(t, 3, Config{
		// A long backoff and no probing keep the breaker open for the
		// whole test, so the no-demand-while-open assertion is exact.
		Health: health.Config{Threshold: 2, Backoff: time.Hour},
	})

	paths := []string{"/a.html", "/a.gif", "/b.html", "/b.gif"}
	browse := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			c := &http.Client{}
			resp := get(t, c, front.URL, paths[i%len(paths)])
			if resp.StatusCode >= http.StatusInternalServerError {
				t.Fatalf("client saw %d for %s after failover", resp.StatusCode, paths[i%len(paths)])
			}
			c.CloseIdleConnections()
		}
	}

	browse(12) // warm: all three backends healthy
	if st := d.Stats(); st.Failovers != 0 || st.Errors != 0 {
		t.Fatalf("healthy phase produced failovers/errors: %+v", st)
	}

	ks[0].up.Store(false) // fail-stop crash of backend 0
	browse(30)

	st := d.Stats()
	if st.Failovers == 0 {
		t.Fatal("no failovers counted after the crash")
	}
	if st.Retries < st.Failovers {
		t.Fatalf("Retries %d < Failovers %d", st.Retries, st.Failovers)
	}
	h := d.Health()
	if h[0].State != "open" {
		t.Fatalf("crashed backend's breaker is %q, want open (health: %+v)", h[0].State, h)
	}
	if h[0].Trips == 0 || h[0].ConsecutiveFailures < 2 {
		t.Fatalf("breaker snapshot not tracking failures: %+v", h[0])
	}
	if localityLen := d.Core().LocalityLen(0); localityLen != 0 {
		t.Fatalf("tripped backend still has %d locality entries; trip must invalidate them", localityLen)
	}

	// While the breaker is open, not a single demand request may reach
	// the crashed backend.
	frozen := ks[0].demand.Load()
	browse(30)
	if got := ks[0].demand.Load(); got != frozen {
		t.Fatalf("crashed backend received %d demand requests while its breaker was open", got-frozen)
	}
	if st := d.Stats(); st.Requests != 72 {
		t.Fatalf("Requests = %d, want 72 (retries must not inflate the request count)", st.Requests)
	}
}

// TestProbeRecoversBackend checks the active-probe path: with a backoff
// far longer than the test, recovery can only come from a probe closing
// the breaker, after which new sessions route to the backend again.
func TestProbeRecoversBackend(t *testing.T) {
	d, front, ks := killableCluster(t, 2, Config{
		Policy:        policy.NewWRR(2),
		Health:        health.Config{Threshold: 1, Backoff: time.Hour},
		ProbeInterval: 5 * time.Millisecond,
	})

	ks[0].up.Store(false)
	c := &http.Client{}
	// WRR sends the first fresh connection to backend 0: this trips its
	// threshold-1 breaker and fails over to backend 1.
	if resp := get(t, c, front.URL, "/a.html"); resp.StatusCode != http.StatusOK {
		t.Fatalf("failover did not mask the crash: %d", resp.StatusCode)
	}
	c.CloseIdleConnections()
	if h := d.Health(); h[0].State != "open" {
		t.Fatalf("breaker state = %q, want open", h[0].State)
	}

	ks[0].up.Store(true) // backend recovers
	deadline := time.Now().Add(5 * time.Second)
	for d.Health()[0].State != "closed" {
		if time.Now().After(deadline) {
			t.Fatalf("probe never closed the breaker: %+v", d.Health())
		}
		time.Sleep(2 * time.Millisecond)
	}
	if got := d.Health()[0].Probes; got == 0 {
		t.Fatal("recovery without any probe counted")
	}

	// New sessions must reach the recovered backend again.
	before := ks[0].demand.Load()
	for i := 0; i < 10 && ks[0].demand.Load() == before; i++ {
		cc := &http.Client{}
		get(t, cc, front.URL, "/b.html")
		cc.CloseIdleConnections()
	}
	if ks[0].demand.Load() == before {
		t.Fatal("recovered backend never saw demand again")
	}
}

// TestFailoverBookkeepingUnderChurn hammers a flapping cluster with
// concurrent clients (run under -race in CI): loads must never go
// negative, and when the dust settles every load and in-flight entry
// must be fully drained and session active counts zero.
func TestFailoverBookkeepingUnderChurn(t *testing.T) {
	d, front, ks := killableCluster(t, 3, Config{
		Miner:         testMiner(),
		Prefetch:      true,
		Health:        health.Config{Threshold: 2, Backoff: 30 * time.Millisecond},
		ProbeInterval: 5 * time.Millisecond,
	})

	stopInvariant := make(chan struct{})
	var invariantErr atomic.Value
	go func() {
		for {
			select {
			case <-stopInvariant:
				return
			default:
			}
			for i, l := range d.Core().Loads() {
				if l < 0 {
					invariantErr.Store("negative load on backend " + strconv.Itoa(i))
				}
			}
			if _, _, problem := d.Core().SessionCheck(); problem != "" {
				invariantErr.Store(problem)
			}
			time.Sleep(time.Millisecond)
		}
	}()

	stopFlip := make(chan struct{})
	var flip sync.WaitGroup
	flip.Add(1)
	go func() {
		defer flip.Done()
		for i := 0; ; i++ {
			select {
			case <-stopFlip:
				return
			default:
			}
			k := ks[i%len(ks)]
			k.up.Store(false)
			time.Sleep(5 * time.Millisecond)
			k.up.Store(true)
			time.Sleep(2 * time.Millisecond)
		}
	}()

	const workers, perWorker = 6, 30
	paths := []string{"/a.html", "/a.gif", "/b.html", "/b.gif"}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client := &http.Client{}
			defer client.CloseIdleConnections()
			for i := 0; i < perWorker; i++ {
				resp, err := client.Get(front.URL + paths[(w+i)%len(paths)])
				if err != nil {
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(w)
	}
	wg.Wait()
	close(stopFlip)
	flip.Wait()
	for _, k := range ks {
		k.up.Store(true)
	}
	close(stopInvariant)
	if msg := invariantErr.Load(); msg != nil {
		t.Fatal(msg)
	}

	// Every request has returned, so the routing state must be drained.
	deadline := time.Now().Add(2 * time.Second)
	for {
		drained := d.Core().InFlightFiles() == 0
		for _, l := range d.Core().Loads() {
			if l != 0 {
				drained = false
			}
		}
		if _, busy, _ := d.Core().SessionCheck(); busy != 0 {
			drained = false
		}
		if drained {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("routing state not drained: loads=%v inflight=%d",
				d.Core().Loads(), d.Core().InFlightFiles())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := d.Stats(); st.Requests != workers*perWorker {
		t.Fatalf("Requests = %d, want %d", st.Requests, workers*perWorker)
	}
}

// TestHandoffsExcludeFirstAssignment: binding a fresh session to its
// first backend is not a handoff; repeated requests on one connection
// must leave the counter at zero.
func TestHandoffsExcludeFirstAssignment(t *testing.T) {
	d, front, _ := testCluster(t, 2, Config{})
	client := &http.Client{}
	defer client.CloseIdleConnections()
	for i := 0; i < 3; i++ {
		get(t, client, front.URL, "/a.html")
	}
	if st := d.Stats(); st.Handoffs != 0 {
		t.Fatalf("Handoffs = %d, want 0 (first assignment and stable routing)", st.Handoffs)
	}
}

// TestSessionEvictionKeepsActiveSessions: the MaxSessions valve may only
// evict idle sessions — one with a request in flight keeps its server
// binding — and the byID index must stay consistent with the table.
func TestSessionEvictionKeepsActiveSessions(t *testing.T) {
	release := make(chan struct{})
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/slow" {
			<-release
		}
		io.WriteString(w, "ok")
	}))
	defer slow.Close()
	u, err := url.Parse(slow.URL)
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(Config{Backends: []*url.URL{u}, MaxSessions: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	front := httptest.NewServer(d)
	defer front.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		c := &http.Client{}
		defer c.CloseIdleConnections()
		resp, err := c.Get(front.URL + "/slow")
		if err != nil {
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	// Wait until the slow request is in flight.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if d.Core().Loads()[0] == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("slow request never became in-flight")
		}
		time.Sleep(time.Millisecond)
	}

	// Five more distinct sessions force the valve repeatedly.
	for i := 0; i < 5; i++ {
		c := &http.Client{}
		get(t, c, front.URL, "/fast")
		c.CloseIdleConnections()
	}

	total, busy, problem := d.Core().SessionCheck()
	if busy != 1 {
		t.Fatalf("busy sessions = %d, want 1 (the in-flight session was evicted or lost its binding)", busy)
	}
	if total > 3 {
		t.Fatalf("session table grew to %d; idle eviction should keep it near MaxSessions", total)
	}
	if problem != "" {
		t.Fatalf("session table invariant violated: %s", problem)
	}
	close(release)
	<-done
}

// TestStatusRecorderForwardsFlush: a backend that flushes mid-response
// must have its first chunk reach the client before the response ends,
// which requires the front-end's recorder to forward Flush.
func TestStatusRecorderForwardsFlush(t *testing.T) {
	release := make(chan struct{})
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "first\n")
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		<-release
		io.WriteString(w, "second\n")
	}))
	defer backend.Close()
	u, err := url.Parse(backend.URL)
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(Config{Backends: []*url.URL{u}})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	front := httptest.NewServer(d)
	defer front.Close()

	resp, err := front.Client().Get(front.URL + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	lines := make(chan string, 1)
	go func() {
		line, _ := bufio.NewReader(resp.Body).ReadString('\n')
		lines <- line
	}()
	select {
	case line := <-lines:
		if line != "first\n" {
			t.Fatalf("first flushed chunk = %q", line)
		}
	case <-time.After(2 * time.Second):
		close(release)
		t.Fatal("flushed chunk never reached the client: Flush is not forwarded")
	}
	close(release)
	io.Copy(io.Discard, resp.Body)
}
