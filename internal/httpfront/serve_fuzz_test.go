package httpfront

import (
	"bufio"
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"prord/internal/health"
)

// markGuard stands in front of a DemoBackend and notes any request that
// arrives carrying one of the front-end's own marks. The fuzzed
// front-end sends no prefetch hints and no probes, so every mark a
// backend sees was forged by the client.
type markGuard struct {
	inner http.Handler

	mu     sync.Mutex
	forged []string
}

func (g *markGuard) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	io.Copy(io.Discard, r.Body) // trailers arrive after the body
	for _, mark := range []string{PrefetchHeader, ProbeHeader} {
		_, inHeader := r.Header[mark]
		_, inTrailer := r.Trailer[mark]
		if inHeader || inTrailer {
			g.mu.Lock()
			g.forged = append(g.forged, mark+" on "+r.Method+" "+r.URL.String())
			g.mu.Unlock()
		}
	}
	g.inner.ServeHTTP(w, r)
}

// take returns and clears the forged marks seen so far.
func (g *markGuard) take() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := g.forged
	g.forged = nil
	return out
}

// FuzzServeHTTP feeds raw request bytes, parsed by http.ReadRequest,
// straight to Distributor.ServeHTTP over two DemoBackends, with the
// gray layer and hedging on and a deadline budget. After every request:
// nothing panicked but the deliberate http.ErrAbortHandler of a cut
// body, every backend's core load and hedge load are back to zero, and
// no backend saw a forged X-Prord-Prefetch or X-Prord-Probe mark.
func FuzzServeHTTP(f *testing.F) {
	for _, seed := range []string{
		"GET /a.html HTTP/1.1\r\nHost: front\r\n\r\n",
		"GET /a.html HTTP/1.1\r\nHost: front\r\nX-Prord-Prefetch: 1\r\n\r\n",
		"GET /a.gif HTTP/1.1\r\nHost: front\r\nX-Prord-Probe: 1\r\nx-prord-prefetch: yes\r\n\r\n",
		"GET /b.html HTTP/1.1\r\nHost: front\r\nConnection: X-Prord-Prefetch, x-prord-probe\r\nX-Prord-Prefetch: 1\r\nX-Prord-Probe: 1\r\n\r\n",
		"GET /b.gif HTTP/1.1\r\nHost: front\r\nConnection: keep-alive,X-Prord-Probe\r\n\r\n",
		"GET /a.html HTTP/1.1\r\nHost: front\r\nX-Forwarded-For: " + strings.Repeat("10.0.0.1, ", 200) + "10.0.0.2\r\n\r\n",
		"POST /q.cgi HTTP/1.1\r\nHost: front\r\nContent-Length: 4\r\n\r\nbody",
		"POST /q.cgi HTTP/1.1\r\nHost: front\r\nTransfer-Encoding: chunked\r\nTrailer: X-Prord-Prefetch\r\n\r\n4\r\nbody\r\n0\r\nX-Prord-Prefetch: 1\r\n\r\n",
		"HEAD /missing HTTP/1.0\r\n\r\n",
		"OPTIONS * HTTP/1.1\r\nHost: front\r\n\r\n",
	} {
		f.Add([]byte(seed))
	}

	var guards []*markGuard
	var urls []*url.URL
	for i := 0; i < 2; i++ {
		g := &markGuard{inner: NewDemoBackend("b", testFiles, 1<<20, 0)}
		guards = append(guards, g)
		srv := httptest.NewServer(g)
		f.Cleanup(srv.Close)
		u, err := url.Parse(srv.URL)
		if err != nil {
			f.Fatal(err)
		}
		urls = append(urls, u)
	}
	d, err := New(Config{
		Backends: urls,
		Deadline: time.Second,
		Gray: &GrayConfig{
			Detector: health.DetectorConfig{Window: 8, MinSamples: 2, EvalInterval: time.Millisecond},
			Hedge:    true,
		},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(d.Close)

	f.Fuzz(func(t *testing.T, raw []byte) {
		r, err := http.ReadRequest(bufio.NewReader(bytes.NewReader(raw)))
		if err != nil {
			return
		}
		r.RemoteAddr = "192.0.2.7:4321"
		func() {
			defer func() {
				if p := recover(); p != nil && p != http.ErrAbortHandler {
					t.Fatalf("ServeHTTP panicked: %v", p)
				}
			}()
			d.ServeHTTP(httptest.NewRecorder(), r)
		}()
		for s, l := range d.Core().Loads() {
			if l != 0 || d.Core().HedgeLoad(s) != 0 {
				t.Fatalf("backend %d holds %d bookings and %d hedges after the request", s, l, d.Core().HedgeLoad(s))
			}
		}
		for i, g := range guards {
			if marks := g.take(); len(marks) > 0 {
				t.Fatalf("backend %d saw forged marks: %v", i, marks)
			}
		}
	})
}
