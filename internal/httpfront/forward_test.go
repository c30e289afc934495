package httpfront

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"prord/internal/health"
	"prord/internal/policy"
)

// seen is one request as an echo backend received it.
type seen struct {
	method, host, path, query, body string
	header                          http.Header
}

// echoBackend records what arrives, answers through reply (200 "ok"
// when nil) and counts the connections opened to it.
type echoBackend struct {
	reply http.HandlerFunc
	dials atomic.Int64

	mu  sync.Mutex
	got []seen
}

func (b *echoBackend) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	body, _ := io.ReadAll(r.Body)
	b.mu.Lock()
	b.got = append(b.got, seen{r.Method, r.Host, r.URL.EscapedPath(), r.URL.RawQuery, string(body), r.Header.Clone()})
	b.mu.Unlock()
	if b.reply != nil {
		b.reply(w, r)
		return
	}
	io.WriteString(w, "ok")
}

func (b *echoBackend) requests() []seen {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]seen(nil), b.got...)
}

// forwardCluster puts a distributor in front of echo backends, one
// per reply, each mounted at base (a path, optionally with a query).
func forwardCluster(t *testing.T, cfg Config, base string, replies ...http.HandlerFunc) (*Distributor, *httptest.Server, []*echoBackend) {
	t.Helper()
	var backs []*echoBackend
	for _, reply := range replies {
		b := &echoBackend{reply: reply}
		backs = append(backs, b)
		srv := httptest.NewUnstartedServer(b)
		srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
			if s == http.StateNew {
				b.dials.Add(1)
			}
		}
		srv.Start()
		t.Cleanup(srv.Close)
		u, err := url.Parse(srv.URL + base)
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
	return d, front, backs
}

func replyStatus(code int, body string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) { http.Error(w, body, code) }
}

// TestForwarder pins what the forwarder owes a client and a backend now
// that no library proxy stands between them: one request (sent `times`
// times on one connection) through a front-end, checked at both ends.
func TestForwarder(t *testing.T) {
	// reusedAfterClose counts requests that arrived on a backend
	// connection after a response on it announced Connection: close.
	var reusedAfterClose atomic.Int64
	cases := []struct {
		name    string
		replies []http.HandlerFunc // one backend each; nil answers 200 "ok"
		base    string             // the backends' base path (and query)
		cfg     Config
		method  string // default GET
		target  string // default "/x"
		host    string
		header  http.Header
		body    string
		times   int // default 1
		check   func(t *testing.T, resp *http.Response, body string, backs []*echoBackend)
		// stats, when set, checks the distributor after the requests.
		stats func(t *testing.T, d *Distributor)
	}{
		{
			name:    "request hop-by-hop headers stop at the front-end",
			replies: []http.HandlerFunc{nil},
			header: http.Header{
				"Connection":          {"X-Listed-Hop, close"},
				"X-Listed-Hop":        {"1"},
				"Keep-Alive":          {"timeout=5"},
				"Proxy-Connection":    {"keep-alive"},
				"Proxy-Authorization": {"Basic Zm9v"},
				"Te":                  {"trailers"},
				"Upgrade":             {"websocket"},
				"X-End-To-End":        {"kept"},
			},
			check: func(t *testing.T, resp *http.Response, _ string, backs []*echoBackend) {
				got := backs[0].requests()[0].header
				for _, h := range []string{"Connection", "X-Listed-Hop", "Keep-Alive", "Proxy-Connection", "Proxy-Authorization", "Te", "Upgrade"} {
					if v, ok := got[h]; ok {
						t.Errorf("hop-by-hop request header %s reached the backend: %q", h, v)
					}
				}
				if got.Get("X-End-To-End") != "kept" {
					t.Error("end-to-end request header lost")
				}
			},
		},
		{
			name: "response hop-by-hop headers stop at the front-end",
			replies: []http.HandlerFunc{func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Connection", "X-Listed-Hop")
				w.Header().Set("X-Listed-Hop", "1")
				w.Header().Set("Keep-Alive", "timeout=5")
				w.Header().Set("Proxy-Authenticate", "Basic")
				w.Header().Set("X-End-To-End", "kept")
				io.WriteString(w, "ok")
			}},
			check: func(t *testing.T, resp *http.Response, body string, _ []*echoBackend) {
				for _, h := range []string{"Connection", "X-Listed-Hop", "Keep-Alive", "Proxy-Authenticate"} {
					if v, ok := resp.Header[h]; ok {
						t.Errorf("hop-by-hop response header %s reached the client: %q", h, v)
					}
				}
				if resp.Header.Get("X-End-To-End") != "kept" || body != "ok" {
					t.Errorf("end-to-end header %q, body %q", resp.Header.Get("X-End-To-End"), body)
				}
			},
		},
		{
			name:    "X-Forwarded-For is appended to a prior value",
			replies: []http.HandlerFunc{nil},
			header:  http.Header{"X-Forwarded-For": {"203.0.113.7"}},
			check: func(t *testing.T, _ *http.Response, _ string, backs []*echoBackend) {
				if got := backs[0].requests()[0].header.Get("X-Forwarded-For"); got != "203.0.113.7, 127.0.0.1" {
					t.Errorf("X-Forwarded-For = %q", got)
				}
			},
		},
		{
			name:    "Host and end-to-end headers reach the backend, no User-Agent is invented",
			replies: []http.HandlerFunc{nil},
			host:    "site.example",
			header:  http.Header{"X-Bench-Span": {"7.9"}, "User-Agent": {""}},
			check: func(t *testing.T, _ *http.Response, _ string, backs []*echoBackend) {
				got := backs[0].requests()[0]
				if got.host != "site.example" {
					t.Errorf("backend saw Host %q", got.host)
				}
				if got.header.Get("X-Bench-Span") != "7.9" {
					t.Errorf("X-Bench-Span = %q", got.header.Get("X-Bench-Span"))
				}
				if ua, ok := got.header["User-Agent"]; ok {
					t.Errorf("a User-Agent was invented for a client that sent none: %q", ua)
				}
			},
		},
		{
			name:    "a backend base path and query are joined",
			replies: []http.HandlerFunc{nil},
			base:    "/base/?k=v",
			target:  "/dir/a%2Fb?q=1",
			check: func(t *testing.T, _ *http.Response, _ string, backs []*echoBackend) {
				got := backs[0].requests()[0]
				if got.path != "/base/dir/a%2Fb" || got.query != "k=v&q=1" {
					t.Errorf("backend saw %s?%s", got.path, got.query)
				}
			},
		},
		{
			name:   "HEAD carries the length and no body, and the connection is reused",
			method: http.MethodHead,
			times:  3,
			replies: []http.HandlerFunc{func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Length", "400")
			}},
			check: func(t *testing.T, resp *http.Response, body string, backs []*echoBackend) {
				if resp.StatusCode != http.StatusOK || resp.ContentLength != 400 || body != "" {
					t.Errorf("HEAD: status %d, length %d, body %q", resp.StatusCode, resp.ContentLength, body)
				}
				if n := backs[0].dials.Load(); n != 1 {
					t.Errorf("%d backend connections for 3 HEADs, want 1", n)
				}
			},
		},
		{
			name:  "204 carries no body and the connection is reused",
			times: 3,
			replies: []http.HandlerFunc{func(w http.ResponseWriter, r *http.Request) {
				w.WriteHeader(http.StatusNoContent)
			}},
			check: func(t *testing.T, resp *http.Response, body string, backs []*echoBackend) {
				if resp.StatusCode != http.StatusNoContent || body != "" {
					t.Errorf("status %d, body %q", resp.StatusCode, body)
				}
				if n := backs[0].dials.Load(); n != 1 {
					t.Errorf("%d backend connections for 3 requests, want 1", n)
				}
			},
		},
		{
			name:  "304 carries no body and the connection is reused",
			times: 3,
			replies: []http.HandlerFunc{func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Etag", `"v1"`)
				w.WriteHeader(http.StatusNotModified)
			}},
			check: func(t *testing.T, resp *http.Response, body string, backs []*echoBackend) {
				if resp.StatusCode != http.StatusNotModified || body != "" || resp.Header.Get("Etag") != `"v1"` {
					t.Errorf("status %d, body %q, Etag %q", resp.StatusCode, body, resp.Header.Get("Etag"))
				}
				if n := backs[0].dials.Load(); n != 1 {
					t.Errorf("%d backend connections for 3 requests, want 1", n)
				}
			},
		},
		{
			name:    "a POST body is forwarded once and never retried",
			cfg:     Config{Policy: policy.NewWRR(2)},
			method:  http.MethodPost,
			body:    "payload",
			replies: []http.HandlerFunc{replyStatus(http.StatusInternalServerError, "boom"), nil},
			check: func(t *testing.T, resp *http.Response, body string, backs []*echoBackend) {
				if resp.StatusCode != http.StatusInternalServerError || body != "boom\n" {
					t.Errorf("status %d, body %q: the failure should reach the client as the backend sent it", resp.StatusCode, body)
				}
				first := backs[0].requests()
				if len(first) != 1 || first[0].body != "payload" {
					t.Errorf("first backend saw %+v, want the body exactly once", first)
				}
				if n := len(backs[1].requests()); n != 0 {
					t.Errorf("POST was retried on the other backend %d times", n)
				}
			},
		},
		{
			name: "announced response trailers arrive",
			replies: []http.HandlerFunc{func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Trailer", "X-Sum")
				io.WriteString(w, "body")
				w.Header().Set("X-Sum", "abc")
			}},
			check: func(t *testing.T, resp *http.Response, body string, _ []*echoBackend) {
				if body != "body" || resp.Trailer.Get("X-Sum") != "abc" {
					t.Errorf("body %q, trailers %v", body, resp.Trailer)
				}
			},
		},
		{
			name:    "the last attempt's 5xx passes the backend's own body through",
			cfg:     Config{Policy: policy.NewWRR(2)},
			replies: []http.HandlerFunc{replyStatus(http.StatusInternalServerError, "boom0"), replyStatus(http.StatusBadGateway, "boom1")},
			check: func(t *testing.T, resp *http.Response, body string, _ []*echoBackend) {
				if resp.StatusCode != http.StatusBadGateway || body != "boom1\n" || resp.Header.Get(BackendHeader) != "1" {
					t.Errorf("status %d, body %q, backend %q", resp.StatusCode, body, resp.Header.Get(BackendHeader))
				}
			},
		},
		{
			name:    "no healthy alternative passes the backend's own body through",
			replies: []http.HandlerFunc{replyStatus(http.StatusServiceUnavailable, "killed")},
			check: func(t *testing.T, resp *http.Response, body string, _ []*echoBackend) {
				if resp.StatusCode != http.StatusServiceUnavailable || body != "killed\n" {
					t.Errorf("status %d, body %q", resp.StatusCode, body)
				}
				if ct := resp.Header.Get("Content-Type"); ct != "text/plain; charset=utf-8" {
					t.Errorf("Content-Type = %q", ct)
				}
				if resp.Header.Get(BackendHeader) != "0" {
					t.Errorf("backend header = %q", resp.Header.Get(BackendHeader))
				}
			},
		},
		{
			name:  "a Connection: close response does not go back to the pool",
			times: 3,
			replies: []http.HandlerFunc{func(w http.ResponseWriter, r *http.Request) {
				// Announce the close but keep the connection open: a
				// client that pooled it anyway would send its next
				// request here.
				nc, rw, err := w.(http.Hijacker).Hijack()
				if err != nil {
					panic(err)
				}
				rw.WriteString("HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 2\r\n\r\nok")
				rw.Flush()
				go func() {
					defer nc.Close()
					if _, err := rw.ReadByte(); err == nil {
						reusedAfterClose.Add(1)
					}
				}()
			}},
			check: func(t *testing.T, resp *http.Response, body string, backs []*echoBackend) {
				if resp.StatusCode != http.StatusOK || body != "ok" || resp.Header.Get("Connection") != "" {
					t.Errorf("status %d, body %q, Connection %q", resp.StatusCode, body, resp.Header.Get("Connection"))
				}
				if n := reusedAfterClose.Load(); n != 0 {
					t.Errorf("%d requests were sent on connections announced closed", n)
				}
				if n := backs[0].dials.Load(); n != 3 {
					t.Errorf("%d backend connections for 3 requests, want 3", n)
				}
			},
		},
		{
			name:  "bytes past a response close its connection",
			times: 3,
			replies: []http.HandlerFunc{func(w http.ResponseWriter, r *http.Request) {
				// A complete keep-alive answer with junk behind it: read
				// as the next response, it would fail an innocent request.
				nc, rw, err := w.(http.Hijacker).Hijack()
				if err != nil {
					panic(err)
				}
				rw.WriteString("HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nokHTTP/1.1 500 Junk\r\n\r\n")
				rw.Flush()
				go func() {
					defer nc.Close()
					rw.ReadByte()
				}()
			}},
			check: func(t *testing.T, resp *http.Response, body string, backs []*echoBackend) {
				if resp.StatusCode != http.StatusOK || body != "ok" {
					t.Errorf("status %d, body %q", resp.StatusCode, body)
				}
				if n := backs[0].dials.Load(); n != 3 {
					t.Errorf("%d backend connections for 3 requests, want 3", n)
				}
			},
			stats: func(t *testing.T, d *Distributor) {
				if st := d.Stats(); st.Errors != 0 || st.Retries != 0 {
					t.Errorf("junk after a response was booked: %+v", st)
				}
			},
		},
		{
			name:  "a pooled connection the backend closed while idle is redialed",
			times: 3,
			replies: []http.HandlerFunc{func(w http.ResponseWriter, r *http.Request) {
				// A complete keep-alive answer, then the backend closes
				// the connection it leaves idle in the front-end's pool.
				nc, rw, err := w.(http.Hijacker).Hijack()
				if err != nil {
					panic(err)
				}
				rw.WriteString("HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")
				rw.Flush()
				nc.Close()
			}},
			check: func(t *testing.T, resp *http.Response, body string, backs []*echoBackend) {
				if resp.StatusCode != http.StatusOK || body != "ok" {
					t.Errorf("status %d, body %q", resp.StatusCode, body)
				}
				if n := len(backs[0].requests()); n != 3 {
					t.Errorf("backend saw %d requests, want 3", n)
				}
			},
			stats: func(t *testing.T, d *Distributor) {
				if st := d.Stats(); st.Errors != 0 || st.Retries != 0 || st.Failovers != 0 {
					t.Errorf("a stale pooled connection was booked: %+v", st)
				}
				if h := d.Health()[0]; h.Failures != 0 || h.Successes != 3 {
					t.Errorf("breaker saw %+v, want 3 successes and no failure", h)
				}
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			d, front, backs := forwardCluster(t, c.cfg, c.base, c.replies...)
			client := freshClient(t)
			method, target, times := c.method, c.target, c.times
			if method == "" {
				method = http.MethodGet
			}
			if target == "" {
				target = "/x"
			}
			if times == 0 {
				times = 1
			}
			var resp *http.Response
			var body []byte
			for i := 0; i < times; i++ {
				var rd io.Reader
				if c.body != "" {
					rd = strings.NewReader(c.body)
				}
				req, err := http.NewRequest(method, front.URL+target, rd)
				if err != nil {
					t.Fatal(err)
				}
				req.Host = c.host
				for k, vv := range c.header {
					req.Header[k] = vv
				}
				if resp, err = client.Do(req); err != nil {
					t.Fatal(err)
				}
				body, err = io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Fatal(err)
				}
			}
			c.check(t, resp, string(body), backs)
			if c.stats != nil {
				c.stats(t, d)
			}
		})
	}
}

// waitIdle polls until no backend holds a booking.
func waitIdle(t *testing.T, d *Distributor) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		busy := false
		for _, l := range d.Core().Loads() {
			busy = busy || l != 0
		}
		if !busy {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("bookings never released: loads %v", d.Core().Loads())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBackendDeathMidBodyCutsTheClient: a backend that dies after its
// head was committed must not be served to the client as a complete,
// shorter response — the client's read fails — and the attempt is
// booked as failed with every booking released and no latency sample.
func TestBackendDeathMidBodyCutsTheClient(t *testing.T) {
	var observed atomic.Int64
	d, front, _ := forwardCluster(t, Config{
		Gray:    &GrayConfig{},
		Observe: func(Observation) { observed.Add(1) },
	}, "", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "first\n")
		w.(http.Flusher).Flush()
		panic(http.ErrAbortHandler) // the backend drops the connection mid-stream
	})
	resp, err := freshClient(t).Get(front.URL + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err == nil {
		t.Fatalf("client read a clean body %q from a backend that died mid-stream", body)
	}
	if h := d.Health()[0]; h.Failures != 1 || h.Successes != 0 {
		t.Errorf("breaker saw %+v, want the attempt booked as failed", h)
	}
	if st := d.Stats(); st.Errors != 1 {
		t.Errorf("Errors = %d, want 1", st.Errors)
	}
	if n := d.Gray().Backends[0].Samples; n != 0 {
		t.Errorf("a failed attempt fed the detector %d samples", n)
	}
	if observed.Load() != 1 {
		t.Errorf("Observe ran %d times, want 1", observed.Load())
	}
	waitIdle(t, d)
}

// failingWriter is a client connection that broke.
type failingWriter struct{ http.ResponseWriter }

func (failingWriter) Write([]byte) (int, error) { return 0, errors.New("broken pipe") }

// errReader fails after its data, like a backend dying mid-body.
type errReader struct{ data io.Reader }

func (r errReader) Read(p []byte) (int, error) {
	if n, _ := r.data.Read(p); n > 0 {
		return n, nil
	}
	return 0, io.ErrUnexpectedEOF
}

// TestDeliverTellsReadErrorsFromWriteErrors: only a failed backend read
// is a verdict on the backend; a failed client write just ends the copy.
func TestDeliverTellsReadErrorsFromWriteErrors(t *testing.T) {
	u, _ := url.Parse("http://127.0.0.1:1")
	d, err := New(Config{Backends: []*url.URL{u}})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	// A head with no announced length: the body runs until the backend
	// stops sending.
	h := &head{status: http.StatusOK, length: -1, untilEOF: true}
	if err := d.deliver(failingWriter{httptest.NewRecorder()}, 0, h, strings.NewReader("data")); err != nil {
		t.Errorf("a client write error was reported as a backend read error: %v", err)
	}
	rec := httptest.NewRecorder()
	if err := d.deliver(rec, 0, h, errReader{strings.NewReader("data")}); err == nil {
		t.Error("a backend read error went unreported")
	}
	if rec.Body.String() != "data" {
		t.Errorf("bytes read before the failure were not delivered: %q", rec.Body.String())
	}
}

// TestClientHangUpsLeaveBreakerClosed: clients giving up on a slow but
// healthy backend are no evidence against it — the breaker stays closed
// with no failure counted, nothing is retried, no detector sample is
// taken, and every booking is released.
func TestClientHangUpsLeaveBreakerClosed(t *testing.T) {
	var slow atomic.Bool
	slow.Store(true)
	d, front, _ := forwardCluster(t, Config{
		Gray:   &GrayConfig{},
		Health: health.Config{Threshold: 3, Backoff: time.Hour},
	}, "", func(w http.ResponseWriter, r *http.Request) {
		if slow.Load() {
			select {
			case <-time.After(100 * time.Millisecond):
			case <-r.Context().Done():
			}
		}
		io.WriteString(w, "ok")
	})
	const hangUps = 5
	for i := 0; i < hangUps; i++ {
		c := freshClient(t)
		c.Timeout = 10 * time.Millisecond
		if resp, err := c.Get(front.URL + "/a.html"); err == nil {
			resp.Body.Close()
			t.Fatal("impatient client got an answer from a 100ms backend")
		}
	}
	waitIdle(t, d)
	if h := d.Health()[0]; h.State != "closed" || h.Failures != 0 || h.ConsecutiveFailures != 0 {
		t.Fatalf("client hang-ups counted against the backend: %+v", h)
	}
	if st := d.Stats(); st.Errors != 0 || st.Retries != 0 || st.Unavailable != 0 {
		t.Errorf("hang-ups booked as failures: %+v", st)
	}
	if n := d.Gray().Backends[0].Samples; n != 0 {
		t.Errorf("hang-ups fed the detector %d samples", n)
	}
	slow.Store(false)
	if resp := get(t, freshClient(t), front.URL, "/a.html"); resp.StatusCode != http.StatusOK {
		t.Fatalf("patient client after the hang-ups: status %d", resp.StatusCode)
	}
}

// TestBackendDialsBoundedByConcurrency: the backend client pools every
// connection a worker used, so N concurrent clients cost at most N
// backend dials however many requests they send. The backend holds the
// first round until all N are in flight, so N connections are needed at
// once and none is dialed speculatively while another is handed back.
func TestBackendDialsBoundedByConcurrency(t *testing.T) {
	const workers, perWorker = 16, 100
	var arrived atomic.Int64
	all := make(chan struct{})
	_, front, backs := forwardCluster(t, Config{}, "", func(w http.ResponseWriter, r *http.Request) {
		if arrived.Add(1) == workers {
			close(all)
		}
		<-all
		io.WriteString(w, "ok")
	})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		c := freshClient(t)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				resp, err := c.Get(front.URL + "/x")
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
	if n := backs[0].dials.Load(); n > workers {
		t.Fatalf("%d backend dials for %d concurrent clients (%d requests)", n, workers, workers*perWorker)
	}
}

// forwardAllocsCeiling and forwardBytesCeiling ratchet the whole
// process's cost of one warm keep-alive GET through the front-end to a
// DemoBackend — client write, front-end, transport, backend — as
// runtime.MemStats counts it. Both ceilings sit about 5 % above what
// was measured once the forwarder's own backend client had replaced
// http.Transport and DemoBackend had precomputed its responses (43.0
// allocations, 5.2 KB; 91.1 and 8.1 KB before either); a copy buffer
// that stops being pooled adds 32 KB and fails the bytes ceiling at once.
const (
	forwardAllocsCeiling = 45
	forwardBytesCeiling  = 5450
)

func TestForwardAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	_, front, _ := testCluster(t, 1, Config{})
	nc, err := net.Dial("tcp", front.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	br := bufio.NewReader(nc)
	req := []byte("GET /a.html HTTP/1.1\r\nHost: bench\r\n\r\n")
	want := int(testFiles["/a.html"])
	get := func() {
		if _, err := nc.Write(req); err != nil {
			t.Fatal(err)
		}
		// The head ends at the first empty line; the body length is known.
		for {
			line, err := br.ReadSlice('\n')
			if err != nil {
				t.Fatal(err)
			}
			if len(line) <= 2 {
				break
			}
		}
		if _, err := br.Discard(want); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ {
		get() // warm: connections dialed, pools filled, file resident
	}
	const n = 2000
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		get()
	}
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / n
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / n
	t.Logf("%.1f allocs/req, %.0f B/req", allocs, bytes)
	if allocs > forwardAllocsCeiling {
		t.Errorf("%.1f allocs per request, ceiling %d", allocs, forwardAllocsCeiling)
	}
	if bytes > forwardBytesCeiling {
		t.Errorf("%.0f bytes per request, ceiling %d", bytes, forwardBytesCeiling)
	}
}

// TestOwnRequestsJoinTheBackendBasePath: prefetch hints and probes
// address a backend the way demand requests do, under its base path and
// query, so a hint warms the file a demand request will ask for.
func TestOwnRequestsJoinTheBackendBasePath(t *testing.T) {
	d, front, backs := forwardCluster(t, Config{Miner: testMiner(), Prefetch: true}, "/base/?k=v", nil)
	get(t, freshClient(t), front.URL, "/a.html")
	// The miner bundles a.gif with a.html and predicts b.html after it:
	// wait for the hint for b.html.
	var hints []seen
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		hints = hints[:0]
		next := false
		for _, s := range backs[0].requests() {
			if s.header.Get(PrefetchHeader) != "" {
				hints = append(hints, s)
				next = next || strings.HasSuffix(s.path, "/b.html")
			}
		}
		if next {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no prefetch hint for b.html arrived; hints %+v", hints)
		}
	}
	for _, h := range hints {
		if !strings.HasPrefix(h.path, "/base/") || h.query != "k=v" {
			t.Errorf("a hint reached %s?%s, outside the base /base/?k=v", h.path, h.query)
		}
	}
	if !d.probeBackend(0) {
		t.Fatal("probe failed")
	}
	all := backs[0].requests()
	if got := all[len(all)-1]; got.header.Get(ProbeHeader) == "" || got.path != "/base/" || got.query != "k=v" {
		t.Errorf("the probe reached %s?%s (probe mark %q), want /base/?k=v", got.path, got.query, got.header.Get(ProbeHeader))
	}
}

// TestPooledConnectionsRunNoGoroutines: a pooled backend connection
// costs the front-end no goroutine. n concurrent attempts open n
// connections, further rounds of keep-alive traffic reuse them, and the
// goroutine count grows by the backend server's own goroutine per
// connection and nothing more — http.Transport ran two of its own.
func TestPooledConnectionsRunNoGoroutines(t *testing.T) {
	for _, n := range []int{4, 16} {
		var arrived atomic.Int64
		all := make(chan struct{})
		back := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if arrived.Add(1) == int64(n) {
				close(all)
			}
			<-all
			io.WriteString(w, "ok")
		}))
		var dials atomic.Int64
		back.Config.ConnState = func(_ net.Conn, s http.ConnState) {
			if s == http.StateNew {
				dials.Add(1)
			}
		}
		back.Start()
		u, _ := url.Parse(back.URL)
		d, err := New(Config{Backends: []*url.URL{u}})
		if err != nil {
			t.Fatal(err)
		}
		baseline := runtime.NumGoroutine()
		for round := 0; round < 5; round++ {
			var wg sync.WaitGroup
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					req := httptest.NewRequest(http.MethodGet, "/x", nil)
					resp, err := d.roundTrip(context.Background(), 0, req)
					if err != nil {
						t.Error(err)
						return
					}
					io.Copy(io.Discard, resp)
					resp.Close()
				}()
			}
			wg.Wait()
		}
		if got := dials.Load(); got != int64(n) {
			t.Errorf("n=%d: %d backend connections for %d concurrent attempts, want %d", n, got, n, n)
		}
		settled := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > baseline+n && time.Now().Before(settled) {
			time.Sleep(5 * time.Millisecond)
		}
		if g := runtime.NumGoroutine(); g > baseline+n {
			buf := make([]byte, 1<<16)
			t.Fatalf("n=%d: goroutines grew from %d to %d, more than the backend's one per connection\n%s",
				n, baseline, g, buf[:runtime.Stack(buf, true)])
		}
		d.Close()
		back.Close()
	}
}
