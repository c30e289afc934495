package httpfront

import (
	"encoding/json"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"
	"time"

	"prord/internal/mining"
	"prord/internal/policy"
	"prord/internal/trace"
)

// testFiles is a tiny site: two pages with one embedded object each.
var testFiles = map[string]int64{
	"/a.html": 400,
	"/a.gif":  100,
	"/b.html": 300,
	"/b.gif":  120,
}

// testMiner trains a miner that knows a.html -> b.html navigation and the
// page->object bundles.
func testMiner() *mining.Miner {
	tr := &trace.Trace{Name: "t", Files: testFiles}
	add := func(sess int, path, parent string) {
		tr.Requests = append(tr.Requests, trace.Request{
			Session: sess, Client: "c", Path: path, Size: testFiles[path],
			Embedded: parent != "", Parent: parent, Group: -1,
		})
	}
	for s := 0; s < 5; s++ {
		add(s, "/a.html", "")
		add(s, "/a.gif", "/a.html")
		add(s, "/b.html", "")
		add(s, "/b.gif", "/b.html")
	}
	return mining.Mine(tr, mining.Options{})
}

// testCluster spins up n demo backends plus a distributor in front.
func testCluster(t *testing.T, n int, cfg Config) (*Distributor, *httptest.Server, []*DemoBackend) {
	t.Helper()
	var backends []*DemoBackend
	for i := 0; i < n; i++ {
		b := NewDemoBackend("b"+strconv.Itoa(i), testFiles, 1<<20, 0)
		backends = append(backends, b)
		srv := httptest.NewServer(b)
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
	return d, front, backends
}

// get issues a GET over a shared client (keep-alive => same session).
func get(t *testing.T, client *http.Client, base, path string) *http.Response {
	t.Helper()
	resp, err := client.Get(base + path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("no backends should fail")
	}
	u, _ := url.Parse("http://localhost:1")
	if _, err := New(Config{Backends: []*url.URL{u}, Prefetch: true}); err == nil {
		t.Fatal("Prefetch without Miner should fail")
	}
}

// TestNewRejectsNegativeHedgeCap: the front-end builds its gray layer
// through dispatch.New, so a negative cap must surface as New's error
// here too, and the 0 default must still pass.
func TestNewRejectsNegativeHedgeCap(t *testing.T) {
	u, _ := url.Parse("http://localhost:1")
	cfg := Config{Backends: []*url.URL{u}, Gray: &GrayConfig{Hedge: true, HedgeCap: -1}}
	if d, err := New(cfg); err == nil || !strings.Contains(err.Error(), "HedgeCap") {
		if d != nil {
			d.Close()
		}
		t.Fatalf("HedgeCap -1: err = %v, want an error naming HedgeCap", err)
	}
	cfg.Gray.HedgeCap = 0
	d, err := New(cfg)
	if err != nil {
		t.Fatalf("HedgeCap 0 (the default): %v", err)
	}
	d.Close()
}

// TestNewRejectsNonHTTPBackends: the backend client speaks plain
// HTTP/1.1 to a host, so a backend it cannot reach that way is a
// configuration error, not a stream of failed attempts.
func TestNewRejectsNonHTTPBackends(t *testing.T) {
	for _, raw := range []string{"https://localhost:1", "http:///path", "localhost:1"} {
		u, _ := url.Parse(raw)
		if d, err := New(Config{Backends: []*url.URL{u}}); err == nil {
			d.Close()
			t.Errorf("backend %q was accepted", raw)
		}
	}
}

func TestProxyServesContent(t *testing.T) {
	_, front, _ := testCluster(t, 2, Config{Miner: testMiner()})
	client := front.Client()
	resp := get(t, client, front.URL, "/a.html")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if resp.ContentLength != 400 {
		t.Fatalf("ContentLength = %d, want 400", resp.ContentLength)
	}
	if resp.Header.Get(BackendHeader) == "" {
		t.Fatal("missing backend header")
	}
	resp404 := get(t, client, front.URL, "/nope.html")
	if resp404.StatusCode != http.StatusNotFound {
		t.Fatalf("missing file status = %d", resp404.StatusCode)
	}
}

func TestEmbeddedObjectFollowsPage(t *testing.T) {
	d, front, _ := testCluster(t, 3, Config{Miner: testMiner()})
	client := front.Client()
	page := get(t, client, front.URL, "/a.html")
	obj := get(t, client, front.URL, "/a.gif")
	if page.Header.Get(BackendHeader) != obj.Header.Get(BackendHeader) {
		t.Fatalf("embedded object served by %s, page by %s",
			obj.Header.Get(BackendHeader), page.Header.Get(BackendHeader))
	}
	s := d.Stats()
	if s.DirectForwards == 0 {
		t.Fatalf("embedded object should be a direct forward: %+v", s)
	}
}

func TestLocalityRouting(t *testing.T) {
	// Two different keep-alive clients requesting the same page should
	// land on the same backend under PRORD (locality via dispatcher map).
	_, front, _ := testCluster(t, 4, Config{Miner: testMiner()})
	c1 := &http.Client{}
	c2 := &http.Client{}
	defer c1.CloseIdleConnections()
	defer c2.CloseIdleConnections()
	r1 := get(t, c1, front.URL, "/b.html")
	r2 := get(t, c2, front.URL, "/b.html")
	if r1.Header.Get(BackendHeader) != r2.Header.Get(BackendHeader) {
		t.Fatalf("same file routed to %s and %s",
			r1.Header.Get(BackendHeader), r2.Header.Get(BackendHeader))
	}
}

func TestWRRRoundRobinOverClients(t *testing.T) {
	_, front, _ := testCluster(t, 3, Config{Policy: policy.NewWRR(3)})
	seen := map[string]bool{}
	for i := 0; i < 3; i++ {
		c := &http.Client{}
		r := get(t, c, front.URL, "/a.html")
		seen[r.Header.Get(BackendHeader)] = true
		c.CloseIdleConnections()
	}
	if len(seen) != 3 {
		t.Fatalf("3 fresh connections should hit 3 backends, got %v", seen)
	}
}

func TestPrefetchHintReachesBackend(t *testing.T) {
	d, front, backends := testCluster(t, 2, Config{Miner: testMiner(), Prefetch: true})
	client := front.Client()
	// Visiting a.html should predict b.html (trained 5x) and hint it.
	get(t, client, front.URL, "/a.html")
	deadline := time.Now().Add(2 * time.Second)
	for {
		var prefetches int64
		for _, b := range backends {
			prefetches += b.Stats().Prefetches
		}
		if prefetches > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no backend received a prefetch hint; stats %+v", d.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if d.Stats().Prefetches == 0 {
		t.Fatal("distributor did not count the prefetch")
	}
}

// TestForgedInternalHeadersChangeNothing is the public listener's trust
// boundary: a client that sets the front-end's own marks, prefetch and
// probe, gets the same status, backend and body as one that sets none,
// and moves the distributor's counters the same way. Believed, either
// mark would reach the backend, which answers it with a cache-warming
// 204.
func TestForgedInternalHeadersChangeNothing(t *testing.T) {
	// Each request goes to a fresh, identical cluster, so the two
	// decisions start from the same state.
	get := func(forged ...string) (*httptest.ResponseRecorder, Stats) {
		d, _, _ := testCluster(t, 2, Config{Miner: testMiner(), Prefetch: true})
		req := httptest.NewRequest(http.MethodGet, "/a.html", nil)
		req.RemoteAddr = "10.2.0.1:4242"
		for _, h := range forged {
			req.Header.Set(h, "1")
		}
		rec := httptest.NewRecorder()
		d.ServeHTTP(rec, req)
		return rec, d.Stats()
	}
	honest, hs := get()
	forged, fs := get(PrefetchHeader, ProbeHeader)
	if honest.Code != http.StatusOK || honest.Body.Len() == 0 || hs.Prefetches == 0 {
		t.Fatalf("honest request: status %d with %d body bytes and %d prefetches, want 200 with a body and a planned prefetch",
			honest.Code, honest.Body.Len(), hs.Prefetches)
	}
	if forged.Code != honest.Code {
		t.Errorf("forged headers changed the status: %d, want %d", forged.Code, honest.Code)
	}
	if got, want := forged.Header().Get(BackendHeader), honest.Header().Get(BackendHeader); got != want {
		t.Errorf("forged headers changed the serving backend: %q, want %q", got, want)
	}
	if forged.Body.String() != honest.Body.String() {
		t.Errorf("forged headers changed the body: %d bytes, want %d", forged.Body.Len(), honest.Body.Len())
	}
	if fs.Prefetches != hs.Prefetches || fs.Dispatches != hs.Dispatches {
		t.Errorf("forged headers moved the counters: prefetches %d, dispatches %d; want %d, %d",
			fs.Prefetches, fs.Dispatches, hs.Prefetches, hs.Dispatches)
	}
}

func TestBackendCacheWarming(t *testing.T) {
	b := NewDemoBackend("x", testFiles, 1<<20, 0)
	srv := httptest.NewServer(b)
	defer srv.Close()

	// Prefetch then demand: the demand request must be a hit.
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/b.html", nil)
	req.Header.Set(PrefetchHeader, "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("prefetch status = %d, want 204", resp.StatusCode)
	}
	resp2, err := http.Get(srv.URL + "/b.html")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if got := resp2.Header.Get(CacheStateHeader); got != "hit" {
		t.Fatalf("after prefetch, cache state = %q, want hit", got)
	}
	st := b.Stats()
	if st.Prefetches != 1 || st.Hits != 1 || st.Misses != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestBackendMissThenHit(t *testing.T) {
	b := NewDemoBackend("x", testFiles, 1<<20, 0)
	srv := httptest.NewServer(b)
	defer srv.Close()
	first, _ := http.Get(srv.URL + "/a.html")
	io.Copy(io.Discard, first.Body)
	first.Body.Close()
	second, _ := http.Get(srv.URL + "/a.html")
	io.Copy(io.Discard, second.Body)
	second.Body.Close()
	if first.Header.Get(CacheStateHeader) != "miss" || second.Header.Get(CacheStateHeader) != "hit" {
		t.Fatalf("cache states = %q, %q, want miss, hit",
			first.Header.Get(CacheStateHeader), second.Header.Get(CacheStateHeader))
	}
}

// TestDemoBackendResponse pins what a demo backend answers for a page
// and for an embedded object: status, header values and body bytes,
// twice, so the precomputed values a miss and a hit share are checked
// on both.
func TestDemoBackendResponse(t *testing.T) {
	srv := httptest.NewServer(NewDemoBackend("b7", testFiles, 1<<20, 0))
	defer srv.Close()
	for _, c := range []struct{ path, contentType string }{
		{"/a.html", "text/html; charset=utf-8"},
		{"/a.gif", "image/gif"},
	} {
		unit := "<!-- " + c.path + " -->\n"
		size := int(testFiles[c.path])
		want := strings.Repeat(unit, size/len(unit)+1)[:size]
		for _, state := range []string{"miss", "hit"} {
			resp, err := http.Get(srv.URL + c.path)
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			got := map[string]string{}
			for _, k := range []string{"Content-Type", "Content-Length", CacheStateHeader, "X-Prord-Server"} {
				got[k] = resp.Header.Get(k)
			}
			wantHeader := map[string]string{
				"Content-Type":   c.contentType,
				"Content-Length": strconv.Itoa(size),
				CacheStateHeader: state,
				"X-Prord-Server": "b7",
			}
			if resp.StatusCode != http.StatusOK || !maps.Equal(got, wantHeader) || string(body) != want {
				t.Errorf("%s (%s): status %d, header %v, body %q; want 200, %v, %q",
					c.path, state, resp.StatusCode, got, body, wantHeader, want)
			}
		}
	}
}

func TestStatsHandler(t *testing.T) {
	d, front, _ := testCluster(t, 2, Config{Miner: testMiner()})
	client := front.Client()
	get(t, client, front.URL, "/a.html")
	srv := httptest.NewServer(StatsHandler(d))
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var s Stats
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		t.Fatal(err)
	}
	if s.Requests == 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestConcurrentTraffic(t *testing.T) {
	d, front, _ := testCluster(t, 4, Config{Miner: testMiner(), Prefetch: true})
	done := make(chan error, 8)
	paths := []string{"/a.html", "/a.gif", "/b.html", "/b.gif"}
	for g := 0; g < 8; g++ {
		go func() {
			client := &http.Client{}
			defer client.CloseIdleConnections()
			for i := 0; i < 50; i++ {
				resp, err := client.Get(front.URL + paths[i%len(paths)])
				if err != nil {
					done <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			done <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	s := d.Stats()
	if s.Requests != 8*50 {
		t.Fatalf("requests = %d, want 400", s.Requests)
	}
	if s.Errors != 0 {
		t.Fatalf("errors = %d", s.Errors)
	}
}

func TestSessionPressureValve(t *testing.T) {
	// With MaxSessions 2, a third distinct client must reset the table
	// rather than grow it without bound.
	d, front, _ := testCluster(t, 2, Config{Miner: testMiner(), MaxSessions: 2})
	for i := 0; i < 5; i++ {
		c := &http.Client{}
		get(t, c, front.URL, "/a.html")
		c.CloseIdleConnections()
	}
	if n := d.Core().SessionCount(); n > 2 {
		t.Fatalf("session table grew to %d despite MaxSessions=2", n)
	}
	if d.Stats().Requests != 5 {
		t.Fatalf("requests = %d, want 5", d.Stats().Requests)
	}
}

func TestBackendErrorCounted(t *testing.T) {
	// One healthy backend and one that always fails with 500.
	healthy := NewDemoBackend("ok", testFiles, 1<<20, 0)
	hSrv := httptest.NewServer(healthy)
	defer hSrv.Close()
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer bad.Close()
	hURL, _ := url.Parse(hSrv.URL)
	bURL, _ := url.Parse(bad.URL)

	d, err := New(Config{
		Backends: []*url.URL{bURL, hURL},
		Policy:   policy.NewWRR(2),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	front := httptest.NewServer(d)
	defer front.Close()

	// First fresh connection lands on backend 0 (the bad one) under WRR;
	// the failover retry must mask the 500 with backend 1's response.
	c1 := &http.Client{}
	r1 := get(t, c1, front.URL, "/a.html")
	c1.CloseIdleConnections()
	if r1.StatusCode != http.StatusOK {
		t.Fatalf("failover should mask the 500, got %d", r1.StatusCode)
	}
	if got := r1.Header.Get(BackendHeader); got != "1" {
		t.Fatalf("retry served by backend %q, want 1", got)
	}
	st := d.Stats()
	if st.Errors == 0 {
		t.Fatal("the failed attempt should still be counted as an error")
	}
	if st.Failovers != 1 || st.Retries != 1 {
		t.Fatalf("Failovers/Retries = %d/%d, want 1/1", st.Failovers, st.Retries)
	}
	// The failed path must not be remembered as resident on backend 0.
	if d.Core().LocalityContains(0, "/a.html") {
		t.Fatal("failed response left a stale locality entry")
	}

	// With retries disabled the failure reaches the client untouched.
	d2, err := New(Config{
		Backends: []*url.URL{bURL, hURL},
		Policy:   policy.NewWRR(2),
		Retries:  -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	front2 := httptest.NewServer(d2)
	defer front2.Close()
	c2 := &http.Client{}
	r2 := get(t, c2, front2.URL, "/a.html")
	c2.CloseIdleConnections()
	if r2.StatusCode != http.StatusInternalServerError {
		t.Fatalf("with Retries=-1 expected the raw 500, got %d", r2.StatusCode)
	}
}

func TestLocalityEntriesBound(t *testing.T) {
	d, front, _ := testCluster(t, 1, Config{Miner: testMiner(), LocalityEntries: 2})
	client := front.Client()
	for _, p := range []string{"/a.html", "/a.gif", "/b.html", "/b.gif"} {
		get(t, client, front.URL, p)
	}
	if n := d.Core().LocalityLen(0); n > 2 {
		t.Fatalf("locality map grew to %d entries despite bound 2", n)
	}
}

func TestDistributorDefaultPolicyIsPRORD(t *testing.T) {
	u, _ := url.Parse("http://127.0.0.1:1")
	d, err := New(Config{Backends: []*url.URL{u}})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if d.cfg.Policy.Name() != "PRORD" {
		t.Fatalf("default policy = %s, want PRORD", d.cfg.Policy.Name())
	}
}
