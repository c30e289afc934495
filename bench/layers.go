package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"prord/internal/cache"
	"prord/internal/dispatch"
	"prord/internal/health"
	"prord/internal/mining"
	"prord/internal/overload"
	"prord/internal/policy"
	"prord/internal/sim"
)

// A layer drive calls one layer's public entry points in a loop on the
// workload's own generated inputs. It says what an operation costs; the
// run says how many operations a request makes; the budget multiplies.

const (
	driveBatches  = 9
	driveMinBatch = time.Millisecond
)

// driveOp runs n operations and returns the time to charge for them
// (the loop's wall time, or less when the loop also does work that is
// not the operation).
type driveOp func(n int) time.Duration

// nsPerOp grows the batch until one takes at least driveMinBatch, then
// returns the median ns/op over driveBatches batches.
func nsPerOp(op driveOp) float64 {
	n := 64
	for op(n) < driveMinBatch && n < 1<<24 {
		n *= 2
	}
	per := make([]float64, driveBatches)
	for i := range per {
		per[i] = float64(op(n)) / float64(n)
	}
	return median(per)
}

// loop charges the whole loop.
func loop(body func(i int)) driveOp {
	next := 0
	return func(n int) time.Duration {
		start := time.Now()
		for end := next + n; next < end; next++ {
			body(next)
		}
		return time.Since(start)
	}
}

// driveInputs is the evaluation trace flattened for the drives.
type driveInputs struct {
	keys  []string // session key per request, as the front-end forms it
	paths []string
	sizes []int64
	conns []int
	// pages indexes the main-page requests.
	pages []int
	// fresh are session keys no drive has used.
	fresh []string
	// cacheBytes is one backend's demand cache on this workload.
	cacheBytes int64
	backends   int
}

func newDriveInputs(w workload, in *inputs) *driveInputs {
	d := &driveInputs{cacheBytes: w.cacheBytes, backends: liveBackends}
	if w.sim {
		p := simParams(in.eval.TotalFileBytes())
		d.cacheBytes, d.backends = p.AppMemory, p.Backends
	}
	for i := range in.eval.Requests {
		r := &in.eval.Requests[i]
		d.keys = append(d.keys, fmt.Sprintf("127.0.0.1:%d", 20000+r.Session))
		d.paths = append(d.paths, r.Path)
		d.sizes = append(d.sizes, r.Size)
		d.conns = append(d.conns, r.Session)
		if !r.Embedded {
			d.pages = append(d.pages, i)
		}
	}
	for i := 0; i < 1<<16; i++ {
		d.fresh = append(d.fresh, fmt.Sprintf("127.0.0.2:%d", i))
	}
	return d
}

// newCore builds a decision core configured as the front-end configures
// its own, minus the hooks into the live substrate (breakers, detector)
// and the overload layer, which has a drive of its own.
func (d *driveInputs) newCore(miner *mining.Miner, pol policy.Policy) (*dispatch.Core, error) {
	return dispatch.New(dispatch.Config{
		Backends: d.backends,
		Policy:   pol,
		Miner:    miner,
		Features: dispatch.Features{Bundle: true, NavPrefetch: true},
	})
}

// driveLayers fills in every per-layer metric that is a cost per
// operation, and returns the costs the budget multiplies. miner is the
// drives' own: they train it.
func driveLayers(rep *report, d *driveInputs, miner *mining.Miner) (costs, error) {
	now := time.Unix(1_000_000, 0)
	n := len(d.paths)
	var c costs
	set := func(name string, dst *float64, ns float64) {
		rep.set(name, ns)
		if dst != nil {
			*dst = ns
		}
	}

	tracker := mining.NewTracker(miner.Nav, true)
	set("mining.observe_ns", &c.miningObserve, nsPerOp(loop(func(i int) {
		p := d.pages[i%len(d.pages)]
		tracker.Observe(d.conns[p], d.paths[p])
	})))

	const foldBatch = 256
	obs := make([]mining.NavObs, foldBatch)
	for i := range obs {
		obs[i] = mining.NavObs{Prev: d.paths[d.pages[i%len(d.pages)]], Page: d.paths[d.pages[(i+1)%len(d.pages)]]}
	}
	model := miner.Model
	set("mining.fold_ns_per_obs", nil, nsPerOp(loop(func(int) { model = model.Fold(obs) }))/foldBatch)

	core, err := d.newCore(miner, policy.NewPRORD(policy.Thresholds{}))
	if err != nil {
		return c, err
	}
	routeDone := func(i int) {
		i %= n
		out := core.Route(d.keys[i], d.paths[i], d.sizes[i], now)
		core.Done(d.keys[i], out.Server, d.paths[i], false, false)
	}
	set("dispatch.route_done_ns", &c.routeDone, nsPerOp(loop(routeDone)))

	// The same loop on a second core with the decorated policy says what
	// the policy costs inside it.
	timed := &timedPolicy{Policy: policy.NewPRORD(policy.Thresholds{})}
	timedCore, err := d.newCore(miner, timed)
	if err != nil {
		return c, err
	}
	for i := 0; i < n; i++ {
		out := timedCore.Route(d.keys[i], d.paths[i], d.sizes[i], now)
		timedCore.Done(d.keys[i], out.Server, d.paths[i], false, false)
	}
	c.policyRoute = ratio(float64(timed.ns.Load()), float64(timed.calls.Load()))

	const allocOps = 100000
	before, _ := mallocs()
	for i := 0; i < allocOps; i++ {
		routeDone(i)
	}
	after, _ := mallocs()
	set("dispatch.allocs_per_decision", nil, float64(after-before)/allocOps)

	workers := runtime.GOMAXPROCS(0)
	set("dispatch.route_done_par_ns", nil, nsPerOp(func(ops int) time.Duration {
		var wg sync.WaitGroup
		start := time.Now()
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				// Each goroutine replays its own stretch of the trace,
				// so sessions spread over the lock stripes.
				for i, off := 0, g*n/workers; i < ops/workers; i++ {
					routeDone(off + i)
				}
			}(g)
		}
		wg.Wait()
		return time.Since(start)
	}))

	next := 0
	set("dispatch.plan_proactive_ns", &c.planProactive, nsPerOp(func(ops int) time.Duration {
		var charged time.Duration
		for end := next + ops; next < end; next++ {
			i := d.pages[next%len(d.pages)]
			out := core.Route(d.keys[i], d.paths[i], d.sizes[i], now)
			core.Done(d.keys[i], out.Server, d.paths[i], false, false)
			start := time.Now()
			core.PlanProactive(d.keys[i], out.Server, d.paths[i], now)
			charged += time.Since(start)
		}
		return charged
	}))

	set("dispatch.conn_open_close_ns", &c.connOpenClose, nsPerOp(loop(func(i int) {
		key, path := d.fresh[i%len(d.fresh)], d.paths[d.pages[i%len(d.pages)]]
		out := core.Route(key, path, 0, now)
		core.Done(key, out.Server, path, false, false)
		core.CloseConn(key)
	})))

	det := health.NewDetector(d.backends, health.DetectorConfig{})
	set("health.detector_observe_ns", &c.detectorObserve, nsPerOp(loop(func(i int) {
		det.Observe(i%d.backends, time.Duration(150+i%100)*time.Microsecond, now.Add(time.Duration(i)*100*time.Microsecond))
	})))

	est := overload.NewEstimator(overload.Config{}.WithDefaults(), d.backends)
	set("overload.estimator_observe_ns", &c.estimatorObserve, nsPerOp(loop(func(i int) {
		t := now.Add(time.Duration(i) * 100 * time.Microsecond)
		est.Begin(t)
		est.End(t, 200*time.Microsecond)
	})))

	lru := cache.NewLRU(d.cacheBytes)
	set("cache.lru_get_put_ns", &c.lruGetPut, nsPerOp(loop(func(i int) {
		i %= n
		if !lru.Touch(d.paths[i]) {
			lru.Insert(d.paths[i], d.sizes[i])
		}
	})))

	set("sim.event_ns", nil, nsPerOp(driveEvents))
	return c, nil
}

// driveEvents runs n events through the simulator's engine with a
// thousand pending at any time, each rescheduling itself at a
// pseudo-random distance, as service completions do.
func driveEvents(n int) time.Duration {
	const pending = 1024
	eng := &sim.Engine{}
	x := uint64(88172645463325252)
	left := n
	var fire func()
	fire = func() {
		if left > 0 {
			left--
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			eng.After(time.Duration(x%1000)*time.Microsecond, fire)
		}
	}
	for i := 0; i < pending; i++ {
		eng.After(time.Duration(i)*time.Microsecond, fire)
	}
	start := time.Now()
	eng.Run()
	return time.Since(start) * time.Duration(n) / time.Duration(n+pending)
}
