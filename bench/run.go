package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"prord/internal/cluster"
	"prord/internal/mining"
	"prord/internal/policy"
	"prord/internal/replicate"
)

// settle collects the garbage of whatever ran before, so that every
// repetition of a set-up or a simulation starts from the same heap and
// pays for its own allocation only. Without it the collector's timing
// decides which repetition inherits whose garbage, and setup_s and
// peak_rss_mb swing by a fifth.
func settle() { runtime.GC() }

// setUpLive sets the live program up from the access log: mine it,
// boot the cluster.
func setUpLive(w workload, in *inputs, seed int64, p *probes) (*liveCluster, *mining.Miner, setupTimes, error) {
	miner, t, err := mineLog(in.log, mining.DefaultOptions())
	if err != nil {
		return nil, nil, t, err
	}
	start := time.Now()
	c, err := bootLive(w, in, miner, seed, p)
	t.boot = time.Since(start)
	return c, miner, t, err
}

// frontReplay is the workload's own pass: every session on its own
// keep-alive connection to the front-end.
func frontReplay(w workload, in *inputs, c *liveCluster, tr *tracer) *replay {
	return &replay{
		in: in, addrs: []string{c.front}, target: func(string) int { return 0 },
		perSession: true, warm: w.warm, measured: w.measured, tr: tr,
	}
}

// runLive is the untraced run of a live workload.
func runLive(w workload, in *inputs, seed int64) (*report, error) {
	rep := newReport()
	var c *liveCluster
	var setups []setupTimes
	for i := 0; i < setupReps; i++ {
		if c != nil {
			c.close()
		}
		settle()
		var t setupTimes
		var err error
		if c, _, t, err = setUpLive(w, in, seed, nil); err != nil {
			return nil, err
		}
		setups = append(setups, t)
	}
	defer c.close()
	settle()

	var first, last counters
	r := frontReplay(w, in, c, nil)
	r.onEdge = func(isFirst bool) {
		if isFirst {
			first = c.snapshot()
		} else {
			last = c.snapshot()
		}
	}
	r.run()
	win := r.summarize()

	n := float64(w.measured)
	hits, misses := float64(last.hits-first.hits), float64(last.misses-first.misses)
	demand := float64(last.front.Requests - first.front.Requests)
	setupS, _ := medianSetup(setups)
	rep.attempted, rep.failed = win.attempted, win.failed
	rep.set("req_per_s", win.reqPerS)
	rep.set("lat_p50_us", win.p50)
	rep.set("lat_p95_us", win.p95)
	rep.set("cpu_us_per_req", win.cpuPerReq)
	rep.set("allocs_per_req", float64(last.objects-first.objects)/n)
	rep.set("hit_rate", ratio(hits, hits+misses))
	rep.set("dispatch_per_req", ratio(float64(last.front.Dispatches-first.front.Dispatches), demand))
	rep.set("ok_rate", 1-float64(win.failed)/n)
	rep.set("setup_s", setupS)
	rep.set("peak_rss_mb", peakRSSMB())

	if win.failed > 0 {
		rep.problem("%d of %d requests failed; first: %v", win.failed, win.attempted, win.firstErr)
	}
	checkLive(rep, w, c, first, last)
	win.print("window")
	return rep, nil
}

// checkLive holds a live run to what the workload promises: nothing
// failed inside the program either, the defensive layers stayed quiet,
// and the hit rate is in the band that makes the workload stress the
// layers it was chosen for.
func checkLive(rep *report, w workload, c *liveCluster, first, last counters) {
	c.errMu.Lock()
	if c.serveErr != nil {
		rep.problem("listener: %v", c.serveErr)
	}
	c.errMu.Unlock()
	f, l := first.front, last.front
	if d := (l.Errors - f.Errors) + (l.Retries - f.Retries) + (l.Failovers - f.Failovers) +
		(l.Shed - f.Shed) + (l.Unavailable - f.Unavailable); d != 0 {
		rep.problem("front-end counted errors/retries/failovers/shed/unavailable: %+v", l)
	}
	if g := c.dist.Gray(); g != nil && g.Ejections != 0 {
		rep.problem("gray detector ejected %d backends on a healthy cluster", g.Ejections)
	}
	if o := c.dist.Overload(); o != nil && len(o.Transitions) != 0 {
		rep.problem("overload ladder left Normal: %v", o.Transitions)
	}
	hits, misses := float64(last.hits-first.hits), float64(last.misses-first.misses)
	if h := ratio(hits, hits+misses); h < w.hitLo || h > w.hitHi {
		rep.problem("hit rate %.4f outside the workload's band [%.2f, %.2f]", h, w.hitLo, w.hitHi)
	}
}

// simBackends is the paper's mid-range cluster size.
const simBackends = 8

// simParams splits cluster memory the way the repo's experiment runner
// does: memFraction of the data set over the backends, 64/36 between
// the demand cache and the pinned partition (Table 1's 128/72 MB).
func simParams(datasetBytes int64) cluster.Params {
	const memFraction, floor = 0.3, 64 << 10
	p := cluster.DefaultParams()
	p.Backends = simBackends
	per := memFraction * float64(datasetBytes) / simBackends
	p.AppMemory = int64(math.Max(per*0.64, floor))
	p.PinnedMemory = int64(math.Max(per*0.36, floor))
	return p
}

// simMining is the experiment runner's mining configuration: trace
// time is compressed, so the rank table decays gently.
func simMining() mining.Options {
	m := mining.DefaultOptions()
	m.RankDecay = 0.9
	return m
}

// newSim builds the Fig. 7 cell for one policy. features is the zero
// value for the baselines, which then get the pinned memory too.
func newSim(in *inputs, pol policy.Policy, features cluster.Features, miner *mining.Miner) (*cluster.Cluster, error) {
	return cluster.New(cluster.Config{
		Params:              simParams(in.eval.TotalFileBytes()),
		Policy:              pol,
		Features:            features,
		Miner:               miner,
		ReplicateConfig:     replicate.Config{T1Fraction: 0.05, MaxFiles: 64},
		ReplicationInterval: 5 * time.Second / 30,
	})
}

// setUpSim sets the simulator up from the access log.
func setUpSim(in *inputs, wrap func(policy.Policy) policy.Policy) (*cluster.Cluster, setupTimes, error) {
	miner, t, err := mineLog(in.log, simMining())
	if err != nil {
		return nil, t, err
	}
	start := time.Now()
	var pol policy.Policy = policy.NewPRORD(policy.Thresholds{})
	if wrap != nil {
		pol = wrap(pol)
	}
	c, err := newSim(in, pol, cluster.AllFeatures(), miner)
	t.boot = time.Since(start)
	return c, t, err
}

// simRun is one repetition's measurements.
type simRun struct {
	res     *cluster.Result
	wall    time.Duration
	cpu     time.Duration
	objects uint64
	bytes   uint64
}

func timeSim(c *cluster.Cluster, in *inputs) (simRun, error) {
	objects, bytes := mallocs()
	cpu := cpuTime()
	start := time.Now()
	res, err := c.Run(in.eval)
	run := simRun{res: res, wall: time.Since(start), cpu: cpuTime() - cpu}
	o2, b2 := mallocs()
	run.objects, run.bytes = o2-objects, b2-bytes
	return run, err
}

// simCPUPerReq is the simulated cluster's CPU cost of a request in
// microseconds of virtual time: the backends' CPU utilisations summed,
// over the simulated throughput.
func simCPUPerReq(res *cluster.Result) float64 {
	var busy float64
	for _, s := range res.Servers {
		busy += s.CPUUtilization
	}
	return ratio(busy, res.Throughput) * 1e6
}

// runSim is the untraced run of sim-paper: setupReps repetitions, each
// on a freshly mined model and a fresh cluster, which must agree on
// every behavioural output. Throughput, latency and CPU per request are
// the simulated cluster's, in its virtual time, and so exact for a
// seed; how fast the simulator itself ran is printed for the reader and
// measured per layer (cluster.run_ns_per_req), not gated: README.md
// says why.
func runSim(w workload, in *inputs) (*report, error) {
	rep := newReport()
	n := float64(len(in.eval.Requests))
	var setups []setupTimes
	var runs []simRun
	for i := 0; i < setupReps; i++ {
		settle()
		c, t, err := setUpSim(in, nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, t)
		settle()
		run, err := timeSim(c, in)
		if err != nil {
			return nil, err
		}
		runs = append(runs, run)
	}
	var rates, cpus, allocs []float64
	for _, run := range runs {
		rates = append(rates, n/run.wall.Seconds())
		cpus = append(cpus, float64(run.cpu)/float64(time.Microsecond)/n)
		allocs = append(allocs, float64(run.objects)/n)
	}
	fmt.Printf("simulator speed (ungated): req/s %.0f, cpu us/req %.2f; medians %.0f req/s, %.2f cpu us/req\n",
		rates, cpus, median(rates), median(cpus))
	res := runs[0].res
	for i, run := range runs[1:] {
		o := run.res
		if o.HitRate != res.HitRate || o.Metrics.Dispatches != res.Metrics.Dispatches || o.Throughput != res.Throughput {
			rep.problem("repetition %d disagrees with repetition 0: hit %v/%v dispatches %d/%d throughput %v/%v",
				i+1, o.HitRate, res.HitRate, o.Metrics.Dispatches, res.Metrics.Dispatches, o.Throughput, res.Throughput)
		}
	}
	m := &res.Metrics
	rep.attempted = len(in.eval.Requests)
	rep.failed = rep.attempted - int(m.Completed)
	if rep.failed != 0 || m.Failed != 0 || m.Shed != 0 {
		rep.problem("simulator completed %d of %d requests (failed %d, shed %d)", m.Completed, rep.attempted, m.Failed, m.Shed)
	}
	if res.HitRate < w.hitLo || res.HitRate > w.hitHi {
		rep.problem("hit rate %.4f outside the workload's band [%.2f, %.2f]", res.HitRate, w.hitLo, w.hitHi)
	}
	setupS, _ := medianSetup(setups)
	rep.set("req_per_s", res.Throughput)
	rep.set("lat_p50_us", float64(m.Response.Quantile(0.50))/float64(time.Microsecond))
	rep.set("lat_p95_us", float64(m.Response.Quantile(0.95))/float64(time.Microsecond))
	rep.set("cpu_us_per_req", simCPUPerReq(res))
	rep.set("allocs_per_req", median(allocs))
	rep.set("hit_rate", res.HitRate)
	rep.set("dispatch_per_req", m.DispatchesPerRequest())
	rep.set("ok_rate", float64(m.Completed)/n)
	rep.set("setup_s", setupS)
	rep.set("peak_rss_mb", peakRSSMB())
	fmt.Printf("simulated: %d requests x %d repetitions, throughput %.1f req/s, mean response %v\n",
		rep.attempted, setupReps, res.Throughput, res.MeanResponse)
	return rep, nil
}
