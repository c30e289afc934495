package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"prord/internal/cluster"
	"prord/internal/metrics"
	"prord/internal/policy"
)

// tracePath is where a traced run of workload name leaves its spans.
func tracePath(name string) string {
	return filepath.Join("bench", "out", "trace-"+name+".json")
}

// runTraced is the traced run: per-layer metrics, the span file and the
// budget table. It prints no end-to-end metric; those are measured with
// every probe off.
func runTraced(w workload, in *inputs, seed int64) (*report, error) {
	rep := newReport()
	for _, m := range perLayer {
		rep.set(m.name, 0)
	}
	var err error
	if w.sim {
		err = tracedSim(rep, w, in)
	} else {
		err = tracedLive(rep, w, in, seed)
	}
	if err != nil {
		return nil, err
	}
	var ms runtime.MemStats
	runtime.GC()
	// Connection goroutines of the closed clusters need a moment to see
	// their sockets close.
	time.Sleep(100 * time.Millisecond)
	runtime.ReadMemStats(&ms)
	rep.set("runtime.gc_cpu_frac", ms.GCCPUFraction)
	rep.set("runtime.heap_live_mb", float64(ms.HeapAlloc)/(1<<20))
	rep.set("runtime.goroutines_end", float64(runtime.NumGoroutine()))
	return rep, nil
}

// setStages records what the set-up stages cost per log line.
func setStages(rep *report, in *inputs, setups []setupTimes) {
	_, st := medianSetup(setups)
	lines := float64(in.logLines)
	rep.set("clf.parse_ns_per_line", float64(st.parse)/lines)
	rep.set("trace.sessionize_ns_per_req", float64(st.sessionize)/lines)
	rep.set("mining.mine_ns_per_req", float64(st.mine)/lines)
}

// probeCounts is a snapshot of the traced run's own counters.
type probeCounts struct {
	frontConns, backendDials int64
	polCalls, polNS          int64
	issued, used             int64
	served                   int
}

func (p *probes) counts() probeCounts {
	c := probeCounts{
		frontConns: p.frontConns.Load(), backendDials: p.backendDials.Load(),
		polCalls: p.pol.calls.Load(), polNS: p.pol.ns.Load(),
	}
	for _, l := range p.ledgers {
		l.mu.Lock()
		c.issued += l.issued
		c.used += l.used
		l.mu.Unlock()
	}
	p.mu.Lock()
	c.served = len(p.serve)
	p.mu.Unlock()
	return c
}

func tracedLive(rep *report, w workload, in *inputs, seed int64) error {
	n := float64(w.measured)

	// Pass 1, probes off: the reference for the tracing overhead and
	// the client-seen side of the proxy tax.
	c, driveMiner, t0, err := setUpLive(w, in, seed, nil)
	if err != nil {
		return err
	}
	var first, last counters
	plain := frontReplay(w, in, c, nil)
	plain.onEdge = func(isFirst bool) {
		if isFirst {
			first = c.snapshot()
		} else {
			last = c.snapshot()
		}
	}
	plain.run()
	c.close()
	winPlain := plain.summarize()
	rep.set("runtime.bytes_per_req", float64(last.bytes-first.bytes)/n)
	rep.set("client.lat_p99_us", sortedQuantile(okSamples(plain.lat), 0.99))
	rep.set("client.lat_max_us", sortedQuantile(okSamples(plain.lat), 1))

	// Pass 2, probes on.
	p := &probes{tr: newTracer(3 * (w.warm + w.measured))}
	c, _, t1, err := setUpLive(w, in, seed, p)
	if err != nil {
		return err
	}
	var pFirst, pLast probeCounts
	traced := frontReplay(w, in, c, p.tr)
	traced.onEdge = func(isFirst bool) {
		if isFirst {
			first, pFirst = c.snapshot(), p.counts()
		} else {
			last, pLast = c.snapshot(), p.counts()
		}
	}
	traced.run()
	winTraced := traced.summarize()
	checkLive(rep, w, c, first, last)
	if g := c.dist.Gray(); g != nil {
		rep.set("health.ejections", float64(g.Ejections))
	}
	if o := c.dist.Overload(); o != nil {
		rep.set("overload.tier_transitions", float64(len(o.Transitions)))
	}
	c.close()

	// Pass 3, the control: the same requests straight to bare backends,
	// spread by path hash, on connections that stay open.
	direct := &liveCluster{}
	if err := direct.startBackends(w, in, nil); err != nil {
		direct.close()
		return err
	}
	control := &replay{in: in, addrs: direct.backends, target: pathShard(len(direct.backends)),
		warm: w.warm, measured: w.measured}
	control.run()
	direct.close()
	winDirect := control.summarize()

	winPlain.print("probes off")
	winTraced.print("probes on")
	winDirect.print("direct control")
	setStages(rep, in, []setupTimes{t0, t1})
	rep.attempted = winPlain.attempted + winTraced.attempted + winDirect.attempted
	rep.failed = winPlain.failed + winTraced.failed + winDirect.failed
	for _, win := range []window{winPlain, winTraced, winDirect} {
		if win.failed > 0 {
			rep.problem("%d of %d requests failed; first: %v", win.failed, win.attempted, win.firstErr)
		}
	}
	rep.set("client.fail_rate", ratio(float64(rep.failed), float64(rep.attempted)))
	rep.set("trace.overhead_pct", 100*ratio(winPlain.reqPerS-winTraced.reqPerS, winPlain.reqPerS))
	rep.set("backend.direct_p50_us", winDirect.p50)
	rep.set("httpfront.tax_p50_us", winPlain.p50-winDirect.p50)

	f, l := first.front, last.front
	demand := float64(l.Requests - f.Requests)
	rep.set("httpfront.prefetches_per_req", ratio(float64(l.Prefetches-f.Prefetches), demand))
	rep.set("httpfront.prefetch_hints_dropped", float64(l.PrefetchHintsDropped-f.PrefetchHintsDropped))
	rep.set("httpfront.errors", float64(l.Errors-f.Errors))
	rep.set("httpfront.retries", float64(l.Retries-f.Retries))
	rep.set("httpfront.failovers", float64(l.Failovers-f.Failovers))
	rep.set("httpfront.shed", float64(l.Shed-f.Shed))
	rep.set("dispatch.direct_forward_ratio", ratio(float64(l.DirectForwards-f.DirectForwards), demand))
	rep.set("dispatch.handoffs_per_req", ratio(float64(l.Handoffs-f.Handoffs), demand))
	rep.set("backend.hits", float64(last.hits-first.hits))
	rep.set("backend.misses", float64(last.misses-first.misses))
	rep.set("backend.prefetches", float64(last.prefetches-first.prefetches))
	perBackend := make([]int64, len(l.PerBackend))
	for i := range perBackend {
		perBackend[i] = l.PerBackend[i] - f.PerBackend[i]
	}
	rep.set("backend.load_skew", metrics.Skew(perBackend))

	n2c := calls{
		policyPerReq: ratio(float64(pLast.polCalls-pFirst.polCalls), demand),
		connsPerReq:  ratio(float64(pLast.frontConns-pFirst.frontConns), n),
	}
	rep.set("policy.calls_per_req", n2c.policyPerReq)
	rep.set("policy.route_ns", ratio(float64(pLast.polNS-pFirst.polNS), float64(pLast.polCalls-pFirst.polCalls)))
	rep.set("mining.prefetch_use_ratio", ratio(float64(pLast.used-pFirst.used), float64(pLast.issued-pFirst.issued)))
	rep.set("httpfront.front_conns_per_req", n2c.connsPerReq)
	rep.set("httpfront.backend_dials_per_req", ratio(float64(pLast.backendDials-pFirst.backendDials), n))
	serve := p.serve[pFirst.served:pLast.served]
	rep.set("httpfront.serve_p50_us", sortedQuantile(serve, 0.50))
	rep.set("httpfront.serve_p95_us", sortedQuantile(serve, 0.95))

	// Spans of the measured window only.
	var spans []span
	for _, s := range p.tr.spans {
		if s.Req >= int64(w.warm) {
			spans = append(spans, s)
		}
	}
	self, dur := selfTimes(spans), durations(spans)
	if len(dur[spanClient]) == 0 || len(dur[spanFront]) < len(dur[spanClient]) || len(dur[spanBackend]) < len(dur[spanClient]) {
		rep.problem("spans missing: %d client, %d front-end, %d backend", len(dur[spanClient]), len(dur[spanFront]), len(dur[spanBackend]))
	}
	const us = 1000
	rep.set("client.self_p50_us", sortedQuantile(self[spanClient], 0.5)/us)
	rep.set("httpfront.self_p50_us", sortedQuantile(self[spanFront], 0.5)/us)
	rep.set("backend.serve_p50_us", sortedQuantile(dur[spanBackend], 0.5)/us)
	if err := p.tr.write(tracePath(w.name)); err != nil {
		return err
	}
	fmt.Printf("spans: %d written to %s\n", len(p.tr.spans), tracePath(w.name))

	d := newDriveInputs(w, in)
	cs, err := driveLayers(rep, d, driveMiner)
	if err != nil {
		return err
	}
	n2c.pagesPerReq = float64(len(d.pages)) / float64(len(d.paths))
	inside := append(decisionBudget(cs, n2c),
		budgetLine{"health (detector observe)", cs.detectorObserve},
		budgetLine{"overload (estimator begin+end)", cs.estimatorObserve})
	inside = withRest(inside, mean(self[spanFront]), "rest: net/http server, reverse proxy, transport")
	seen, mid := medianRequest(requestCosts(spans))
	rows := []selfRow{
		{"client", mid[spanClient] / us, mean(self[spanClient]) / us},
		{"httpfront", mid[spanFront] / us, mean(self[spanFront]) / us},
		{"backend", mid[spanBackend] / us, mean(self[spanBackend]) / us},
	}
	printLiveBudget(os.Stdout, w.name, len(dur[spanClient]), rows, seen/us, mean(dur[spanClient])/us, inside)
	return nil
}

// okSamples drops the failed requests' markers.
func okSamples(lat []float64) []float64 {
	out := make([]float64, 0, len(lat))
	for _, v := range lat {
		if v >= 0 {
			out = append(out, v)
		}
	}
	return out
}

func tracedSim(rep *report, w workload, in *inputs) error {
	n := float64(len(in.eval.Requests))

	// The reference repetition, decorator off.
	c, t0, err := setUpSim(in, nil)
	if err != nil {
		return err
	}
	plain, err := timeSim(c, in)
	if err != nil {
		return err
	}

	// The traced repetition: the policy.route decorator on.
	var pol *timedPolicy
	c, t1, err := setUpSim(in, func(p policy.Policy) policy.Policy {
		pol = &timedPolicy{Policy: p}
		return pol
	})
	if err != nil {
		return err
	}
	traced, err := timeSim(c, in)
	if err != nil {
		return err
	}
	res := traced.res
	m := &res.Metrics
	if res.HitRate != plain.res.HitRate || m.Dispatches != plain.res.Metrics.Dispatches {
		rep.problem("the decorated policy changed the simulation: hit %v/%v dispatches %d/%d",
			res.HitRate, plain.res.HitRate, m.Dispatches, plain.res.Metrics.Dispatches)
	}
	rep.attempted = 2 * len(in.eval.Requests)
	rep.failed = rep.attempted - int(m.Completed) - int(plain.res.Metrics.Completed)
	if rep.failed != 0 {
		rep.problem("simulator completed %d and %d of %d requests", plain.res.Metrics.Completed, m.Completed, len(in.eval.Requests))
	}

	// The reproduction guard: the baselines on the same trace.
	for _, b := range []struct {
		metric string
		pol    policy.Policy
	}{
		{"cluster.prord_over_lard_tput", policy.NewLARD(policy.Thresholds{})},
		{"cluster.prord_over_wrr_tput", policy.NewWRR(simBackends)},
	} {
		bc, err := newSim(in, b.pol, cluster.Features{}, nil)
		if err != nil {
			return err
		}
		base, err := bc.Run(in.eval)
		if err != nil {
			return err
		}
		rep.set(b.metric, ratio(res.Throughput, base.Throughput))
	}

	setStages(rep, in, []setupTimes{t0, t1})
	rep.set("cluster.run_ns_per_req", float64(plain.wall)/n)
	rep.set("trace.overhead_pct", 100*ratio(traced.wall.Seconds()-plain.wall.Seconds(), plain.wall.Seconds()))
	rep.set("runtime.bytes_per_req", float64(plain.bytes)/n)
	rep.set("client.fail_rate", ratio(float64(rep.failed), float64(rep.attempted)))
	rep.set("client.lat_p99_us", float64(m.Response.Quantile(0.99))/float64(time.Microsecond))
	rep.set("client.lat_max_us", float64(m.Response.Max())/float64(time.Microsecond))
	rep.set("mining.prefetch_use_ratio", m.PrefetchAccuracy())
	rep.set("replicate.copies", float64(m.Replications))
	rep.set("dispatch.direct_forward_ratio", ratio(float64(m.DirectForwards), n))
	rep.set("dispatch.handoffs_per_req", ratio(float64(m.Handoffs), n))
	rep.set("backend.hits", float64(m.MemoryHits))
	rep.set("backend.misses", float64(m.MemoryMisses))
	rep.set("backend.prefetches", float64(m.Prefetches))
	served := make([]int64, len(res.Servers))
	for i, s := range res.Servers {
		served[i] = s.Served
	}
	rep.set("backend.load_skew", metrics.Skew(served))
	n2c := calls{policyPerReq: ratio(float64(pol.calls.Load()), n)}
	rep.set("policy.calls_per_req", n2c.policyPerReq)
	rep.set("policy.route_ns", ratio(float64(pol.ns.Load()), float64(pol.calls.Load())))

	driveMiner, _, err := mineLog(in.log, simMining())
	if err != nil {
		return err
	}
	d := newDriveInputs(w, in)
	cs, err := driveLayers(rep, d, driveMiner)
	if err != nil {
		return err
	}
	n2c.pagesPerReq = float64(len(d.pages)) / float64(len(d.paths))
	lines := append(decisionBudget(cs, n2c), budgetLine{"cache (LRU touch or insert)", cs.lruGetPut})
	lines = withRest(lines, float64(plain.wall)/n, "rest: sim event heap, cluster substrate, replicate")
	printSimBudget(os.Stdout, w.name, len(in.eval.Requests), float64(plain.wall)/n, lines)
	return nil
}
