package main

import (
	"bufio"
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"net/http"
	"net/url"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"prord/internal/health"
	"prord/internal/httpfront"
	"prord/internal/mining"
	"prord/internal/overload"
	"prord/internal/policy"
)

// clients is how many client goroutines, each with one connection at a
// time, replay a live workload: one per core up to four. More would
// measure the scheduler's queue, not the proxy.
func clients() int {
	n := runtime.NumCPU()
	if n > 4 {
		n = 4
	}
	return n
}

// timedPolicy is the policy.route decorator of a traced run: it counts
// the decisions the dispatch core asks of the policy and the time they
// take. Each reading costs a clock pair, so route_ns overstates by
// that much; the calls are exact.
type timedPolicy struct {
	policy.Policy
	calls atomic.Int64
	ns    atomic.Int64
}

func (p *timedPolicy) Route(req policy.Request, view policy.View) policy.Decision {
	//lint:ignore clockflow the traced run's timing decorator measures the policy from outside; decisions do not depend on the reading
	start := time.Now()
	dec := p.Policy.Route(req, view)
	//lint:ignore clockflow as above
	p.ns.Add(int64(time.Since(start)))
	p.calls.Add(1)
	return dec
}

// prefetchLedger counts, at one backend's door, the prefetch hints that
// arrived and how many of them a later demand request for the same file
// used: useful prefetches over prefetches issued.
type prefetchLedger struct {
	mu      sync.Mutex
	pending map[string]bool
	issued  int64
	used    int64
}

func (l *prefetchLedger) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get(httpfront.ProbeHeader) == "" {
			l.mu.Lock()
			if r.Header.Get(httpfront.PrefetchHeader) != "" {
				l.pending[r.URL.Path] = true
				l.issued++
			} else if l.pending[r.URL.Path] {
				delete(l.pending, r.URL.Path)
				l.used++
			}
			l.mu.Unlock()
		}
		h.ServeHTTP(w, r)
	})
}

// probes is what a traced run mounts around the program: everything is
// the benchmark's own and sits outside the layers it reads.
type probes struct {
	tr           *tracer
	pol          *timedPolicy
	ledgers      []*prefetchLedger
	frontConns   atomic.Int64
	backendDials atomic.Int64

	mu    sync.Mutex
	serve []float64 // the front-end's Observe hook, microseconds
}

func (p *probes) observe(o httpfront.Observation) {
	p.mu.Lock()
	p.serve = append(p.serve, float64(o.Latency)/float64(time.Microsecond))
	p.mu.Unlock()
}

func countNew(n *atomic.Int64) func(net.Conn, http.ConnState) {
	return func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			n.Add(1)
		}
	}
}

// liveCluster is the program as prord-server ships it: demo backends
// on their own loopback listeners behind one PRORD front-end with the
// miner, prefetching, the overload ladder and the gray detector on;
// hedging, fleet and autoscale off.
type liveCluster struct {
	demos    []*httpfront.DemoBackend
	dist     *httpfront.Distributor
	servers  []*http.Server // the backends', then the front-end's
	serving  sync.WaitGroup
	front    string
	backends []string

	errMu    sync.Mutex
	serveErr error
}

func (c *liveCluster) listen(h http.Handler, connState func(net.Conn, http.ConnState)) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h, ConnState: connState}
	c.servers = append(c.servers, srv)
	c.serving.Add(1)
	go func() {
		defer c.serving.Done()
		if err := srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			c.errMu.Lock()
			c.serveErr = err
			c.errMu.Unlock()
		}
	}()
	return ln.Addr().String(), nil
}

// startBackends starts the demo backends on their own listeners.
func (c *liveCluster) startBackends(w workload, in *inputs, p *probes) error {
	for i := 0; i < liveBackends; i++ {
		demo := httpfront.NewDemoBackend(fmt.Sprintf("backend-%d", i), in.files, w.cacheBytes, w.missLatency)
		c.demos = append(c.demos, demo)
		var h http.Handler = demo
		var connState func(net.Conn, http.ConnState)
		if p != nil {
			ledger := &prefetchLedger{pending: make(map[string]bool)}
			p.ledgers = append(p.ledgers, ledger)
			h = ledger.wrap(p.tr.wrap(spanBackend, h))
			connState = countNew(&p.backendDials)
		}
		mux := http.NewServeMux()
		mux.Handle("/_prord/stats", demo.StatsHandler())
		mux.Handle("/", h)
		addr, err := c.listen(mux, connState)
		if err != nil {
			return err
		}
		c.backends = append(c.backends, addr)
	}
	return nil
}

// bootLive starts the cluster. p is nil for an untraced run, which
// mounts the program's handlers bare.
func bootLive(w workload, in *inputs, miner *mining.Miner, seed int64, p *probes) (*liveCluster, error) {
	c := &liveCluster{}
	ok := false
	defer func() {
		if !ok {
			c.close()
		}
	}()
	if err := c.startBackends(w, in, p); err != nil {
		return nil, err
	}
	var urls []*url.URL
	for _, addr := range c.backends {
		urls = append(urls, &url.URL{Scheme: "http", Host: addr})
	}
	pol, err := policy.ByName("PRORD", liveBackends, policy.Thresholds{})
	if err != nil {
		return nil, err
	}
	cfg := httpfront.Config{
		Backends:      urls,
		Policy:        pol,
		Miner:         miner,
		Prefetch:      true,
		ProbeInterval: time.Second,
		ProbeSeed:     seed,
		Overload:      &overload.Config{},
		Gray:          &httpfront.GrayConfig{Detector: health.DetectorConfig{}},
	}
	if p != nil {
		p.pol = &timedPolicy{Policy: pol}
		cfg.Policy = p.pol
		cfg.Observe = p.observe
	}
	c.dist, err = httpfront.New(cfg)
	if err != nil {
		return nil, err
	}
	var h http.Handler = c.dist
	var connState func(net.Conn, http.ConnState)
	if p != nil {
		h = p.tr.wrap(spanFront, h)
		connState = countNew(&p.frontConns)
	}
	mux := http.NewServeMux()
	mux.Handle("/_prord/stats", httpfront.StatsHandler(c.dist))
	mux.Handle("/_prord/cluster", httpfront.ClusterStatsHandler(c.dist, c.demos))
	mux.Handle("/", h)
	if c.front, err = c.listen(mux, connState); err != nil {
		return nil, err
	}
	ok = true
	return c, nil
}

// close stops the front-end, then the distributor's own goroutines,
// then the backends, and waits for every listener loop to return.
func (c *liveCluster) close() {
	if c.front != "" {
		c.servers[len(c.servers)-1].Close()
	}
	if c.dist != nil {
		c.dist.Close()
	}
	for _, s := range c.servers {
		s.Close()
	}
	c.serving.Wait()
	// The reverse proxies dial through the shared default transport.
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
}

// counters is a snapshot of what the program counts itself, read
// through its public accessors.
type counters struct {
	hits, misses, prefetches int64
	front                    httpfront.Stats
	objects, bytes           uint64
}

func (c *liveCluster) snapshot() counters {
	var s counters
	for _, d := range c.demos {
		st := d.Stats()
		s.hits += st.Hits
		s.misses += st.Misses
		s.prefetches += st.Prefetches
	}
	s.front = c.dist.Stats()
	s.objects, s.bytes = mallocs()
	return s
}

// mark is the wall and CPU clock at a slice boundary.
type mark struct {
	at  time.Time
	cpu time.Duration
}

// replay is one closed-loop, fixed-work pass over a schedule: warm
// requests unmeasured, then measured ones, issued by clients()
// goroutines that each draw the next request number from one counter.
type replay struct {
	in *inputs
	// addrs are the servers; target picks one per request. perSession
	// opens fresh connections for every session and closes them at its
	// end, as a browser's keep-alive connection would.
	addrs      []string
	target     func(path string) int
	perSession bool
	warm       int
	measured   int
	tr         *tracer
	// onEdge runs at the first and the last slice boundary.
	onEdge func(first bool)

	ticket atomic.Int64
	// lat[i] is measured request i's latency in microseconds, -1 when
	// it failed. Each element is written by the one client that drew i.
	lat    []float64
	bounds []int
	marks  [slices + 1]mark
	errMu  sync.Mutex
	err    error // the first failure, for the report
}

func (r *replay) fail(i int, err error) {
	if i >= 0 {
		r.lat[i] = -1
	}
	r.errMu.Lock()
	if r.err == nil {
		r.err = err
	}
	r.errMu.Unlock()
}

func (r *replay) run() {
	r.lat = make([]float64, r.measured)
	r.bounds = sliceBounds(r.measured, slices)
	var wg sync.WaitGroup
	for i := 0; i < clients(); i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			r.client(id)
		}(i)
	}
	wg.Wait()
}

// edge records the slice boundary, if request number n is one.
func (r *replay) edge(n int) {
	for k, b := range r.bounds {
		if n != r.warm+b {
			continue
		}
		// The edge hook's own cost stays outside the window.
		if k == 0 && r.onEdge != nil {
			r.onEdge(true)
		}
		r.marks[k] = mark{at: time.Now(), cpu: cpuTime()}
		if k == slices && r.onEdge != nil {
			r.onEdge(false)
		}
	}
}

func (r *replay) client(id int) {
	// Client id replays sessions id, id+clients(), ...: who replays
	// what does not depend on timing.
	next := id
	conns := make([]*httpConn, len(r.addrs))
	readers := make([]*bufio.Reader, len(r.addrs))
	for i := range readers {
		readers[i] = bufio.NewReaderSize(nil, 32<<10)
	}
	closeAll := func() {
		for i, c := range conns {
			if c != nil {
				c.close()
				conns[i] = nil
			}
		}
	}
	defer closeAll()
	total := r.warm + r.measured
	scripts := r.in.scripts
	for {
		s := scripts[next%len(scripts)]
		next += clients()
		for _, idx := range s.Reqs {
			n := int(r.ticket.Add(1) - 1)
			r.edge(n)
			if n >= total {
				return
			}
			i := n - r.warm // negative while warming up
			path := r.in.eval.Requests[idx].Path
			t := r.target(path)
			if conns[t] == nil || conns[t].closing {
				if conns[t] != nil {
					conns[t].close()
				}
				c, err := dialHTTP(r.addrs[t], readers[t])
				if err != nil {
					conns[t] = nil
					r.fail(i, err)
					continue
				}
				conns[t] = c
			}
			var link string
			var spanID uint64
			if r.tr != nil {
				spanID = r.tr.id()
				link = headerValue(int64(n), spanID)
			}
			start := time.Now()
			status, body, err := conns[t].get(path, link)
			end := time.Now()
			switch {
			case err != nil:
				conns[t].close()
				conns[t] = nil
				r.fail(i, fmt.Errorf("GET %s: %w", path, err))
				continue
			case status != http.StatusOK:
				r.fail(i, fmt.Errorf("GET %s: status %d", path, status))
				continue
			case body != r.in.files[path]:
				r.fail(i, fmt.Errorf("GET %s: body %d bytes, file table says %d", path, body, r.in.files[path]))
				continue
			}
			if r.tr != nil {
				r.tr.add(span{ID: spanID, Req: int64(n), Name: spanClient,
					Start: int64(start.Sub(r.tr.base)), End: int64(end.Sub(r.tr.base))})
			}
			if i >= 0 {
				r.lat[i] = float64(end.Sub(start)) / float64(time.Microsecond)
			}
		}
		if r.perSession {
			closeAll()
		}
	}
}

// pathShard spreads paths over n servers by hash: the direct control
// pass's stand-in for perfect locality.
func pathShard(n int) func(string) int {
	return func(path string) int {
		h := fnv.New32a()
		h.Write([]byte(path))
		return int(h.Sum32() % uint32(n))
	}
}

// window is what one measured window yields.
type window struct {
	attempted, failed int
	reqPerS           float64
	p50, p95          float64
	cpuPerReq         float64
	wall              time.Duration
	firstErr          error
	// rates and cpus are the slices the medians were taken over, printed
	// so that a reader sees how much the machine moved inside the run.
	rates, cpus []float64
}

func (w window) print(pass string) {
	fmt.Printf("%s: %d requests in %.2fs by %d clients; slices req/s %.0f, cpu us/req %.1f\n",
		pass, w.attempted, w.wall.Seconds(), clients(), w.rates, w.cpus)
}

// summarize reduces the raw samples: every timing is the median over
// the slices.
func (r *replay) summarize() window {
	w := window{attempted: r.measured, firstErr: r.err}
	for k := 0; k < slices; k++ {
		ok := 0
		for _, v := range r.lat[r.bounds[k]:r.bounds[k+1]] {
			if v >= 0 {
				ok++
			}
		}
		w.failed += r.bounds[k+1] - r.bounds[k] - ok
		dt := r.marks[k+1].at.Sub(r.marks[k].at)
		w.rates = append(w.rates, ratio(float64(ok), dt.Seconds()))
		cpu := r.marks[k+1].cpu - r.marks[k].cpu
		w.cpus = append(w.cpus, ratio(float64(cpu)/float64(time.Microsecond), float64(r.bounds[k+1]-r.bounds[k])))
	}
	w.reqPerS = median(w.rates)
	w.cpuPerReq = median(w.cpus)
	w.p50 = sliceQuantile(r.lat, 0.50)
	w.p95 = sliceQuantile(r.lat, 0.95)
	w.wall = r.marks[slices].at.Sub(r.marks[0].at)
	return w
}
