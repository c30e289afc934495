// Command prord-loadgen drives a live in-process PRORD cluster with a
// trace-replay load generator and writes a versioned machine-readable
// benchmark artifact. It is the live-cluster analogue of prord-sim's
// experiment tables: open-loop (Poisson arrivals at a fixed rate) or
// closed-loop (concurrent session replay) load against real HTTP
// backends, with an optional simulator run on the same workload for
// live-vs-sim deltas.
//
// Usage:
//
//	prord-loadgen -mode open -policy prord -backends 4 -rate 500 -duration 30s -seed 1
//	prord-loadgen -mode closed -policy WRR,LARD,PRORD -sessions 300 -concurrency 24
//	prord-loadgen -mode open -rate 200 -sim=false -out /tmp/bench.json
//	prord-loadgen -mode open -backends 3 -faults 1@10s:20s -probe-interval 250ms
//	prord-loadgen -mode open -backends 4 -faults 1@5s/slow=x10 -gray -hedge -deadline 2s
//	prord-loadgen -mode open -rate 100 -ramp-to 1000 -overload -overload-capacity 8
//
// The same seed and flags reproduce the same offered workload
// byte-for-byte (see the schedule_digest field); only genuinely measured
// live quantities and the generated_at stamp differ between runs.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"prord/internal/cluster"
	"prord/internal/health"
	"prord/internal/httpfront"
	"prord/internal/loadgen"
	"prord/internal/overload"
	"prord/internal/trace"
)

func main() {
	var (
		mode        = flag.String("mode", "open", "pacing mode: open (Poisson arrivals) or closed (session replay)")
		policies    = flag.String("policy", "PRORD", "comma-separated policy list (case-insensitive)")
		backends    = flag.Int("backends", 4, "number of demo backend servers")
		rate        = flag.Float64("rate", 500, "open loop: aggregate arrival rate (req/s)")
		rampTo      = flag.Float64("ramp-to", 0, "open loop: ramp the rate linearly to this value across -duration (0: flat)")
		workers     = flag.Int("workers", 8, "open loop: client connections carrying the schedule")
		sessions    = flag.Int("sessions", 200, "closed loop: trace sessions to replay")
		concurrency = flag.Int("concurrency", 16, "closed loop: concurrent clients")
		thinkMs     = flag.Int("think-ms", 25, "closed loop: think time before each page (ms; 0 for none)")
		duration    = flag.Duration("duration", 30*time.Second, "run length (open loop: schedule span)")
		warmup      = flag.Duration("warmup", 2*time.Second, "initial window excluded from measurement")
		seed        = flag.Int64("seed", 1, "workload and schedule seed")
		preset      = flag.String("preset", "synthetic", "workload preset: cs, worldcup, synthetic")
		scale       = flag.Float64("scale", 0.2, "preset request-count scale")
		trainFrac   = flag.Float64("train-frac", 0.5, "trace fraction mined for the navigation model")
		cacheMB     = flag.Int64("cache-mb", 4, "per-backend memory cache (MiB)")
		missMs      = flag.Int("miss-ms", 8, "simulated disk latency per backend miss (ms)")
		sim         = flag.Bool("sim", true, "run the simulator on the same workload and report deltas")
		out         = flag.String("out", "BENCH_loadgen.json", "artifact output path (empty to skip)")

		faults        = flag.String("faults", "", "fault schedule: backend@at[:recoverAt][/mode],... — modes: omitted (fail-stop), slow=xN (gray slowdown), errrate=P (gray error rate), flap=D (periodic down/up); e.g. 1@5s:8s,0@3s/slow=x10,2@4s/errrate=0.3,3@2s/flap=500ms")
		probeInterval = flag.Duration("probe-interval", 0, "front-end active health-probe interval (0 disables)")
		breakThresh   = flag.Int("breaker-threshold", 0, "consecutive failures that trip a backend's breaker (0: front-end default)")
		breakBackoff  = flag.Duration("breaker-backoff", 0, "initial breaker open time before a half-open trial (0: front-end default)")
		retries       = flag.Int("retries", 0, "failover retries per request (0: front-end default of 1, negative disables)")

		grayOn   = flag.Bool("gray", false, "enable the gray-failure resilience layer: latency-outlier detector with slow-backend ejection and progressive session rebinding; -hedge and -deadline build on it")
		hedge    = flag.Bool("hedge", false, "with -gray: hedge idempotent static requests after the pooled-p95 delay, first committed response wins")
		hedgeCap = flag.Int("hedge-cap", 0, "with -hedge: max outstanding hedged requests per backend (0: default 2)")
		deadline = flag.Duration("deadline", 0, "with -gray: per-request deadline budget at Normal tier; halves at Saturated, quarters at Critical (0 disables)")
		grayMult = flag.Float64("gray-multiplier", 0, "with -gray: relative outlier threshold k over the pool median (0: default 3)")
		grayHold = flag.Duration("gray-hold", 0, "with -gray: time over threshold before ejection (0: default 2s)")

		overloadOn = flag.Bool("overload", false, "enable front-end overload control (degrade ladder + admission); the sim comparison runs the same core ladder when -sim is set")
		capacity   = flag.Int("overload-capacity", 0, "in-flight capacity per backend (0: default 64)")
		queueLimit = flag.Int("overload-queue", 0, "accept-queue slots at Critical tier (0: default 16, negative disables queuing)")
		minHold    = flag.Duration("overload-min-hold", 0, "minimum time at a tier before stepping down (0: default 1s)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fail(fmt.Errorf("unexpected arguments: %s", strings.Join(flag.Args(), " ")))
	}

	m, err := loadgen.ParseMode(*mode)
	if err != nil {
		fail(err)
	}
	p, err := trace.ParsePreset(*preset)
	if err != nil {
		fail(fmt.Errorf("-preset: %w", err))
	}
	var pols []string
	for _, name := range strings.Split(*policies, ",") {
		canon, err := loadgen.CanonicalPolicy(name)
		if err != nil {
			fail(err)
		}
		pols = append(pols, canon)
	}
	if *cacheMB <= 0 {
		fail(fmt.Errorf("-cache-mb must be positive, got %d", *cacheMB))
	}
	if *missMs < 0 {
		fail(fmt.Errorf("-miss-ms must not be negative, got %d", *missMs))
	}
	faultSched, err := cluster.ParseFaults(*faults)
	if err != nil {
		fail(err)
	}
	var gcfg *httpfront.GrayConfig
	if *grayOn {
		gcfg = &httpfront.GrayConfig{
			Detector: health.DetectorConfig{Multiplier: *grayMult, Hold: *grayHold},
			Hedge:    *hedge,
			HedgeCap: *hedgeCap,
			Deadline: *deadline,
		}
	} else if *hedge || *hedgeCap != 0 || *deadline != 0 || *grayMult != 0 || *grayHold != 0 {
		fail(fmt.Errorf("-hedge, -hedge-cap, -deadline, -gray-multiplier and -gray-hold require -gray"))
	}
	var ovcfg *overload.Config
	if *overloadOn {
		ovcfg = &overload.Config{
			CapacityPerBackend: *capacity,
			QueueLimit:         *queueLimit,
			MinHold:            *minHold,
		}
	}
	cfg := loadgen.Config{
		Mode:          m,
		Policies:      pols,
		Backends:      *backends,
		Rate:          *rate,
		RampTo:        *rampTo,
		Workers:       *workers,
		Sessions:      *sessions,
		Concurrency:   *concurrency,
		Think:         thinkTime(*thinkMs),
		Duration:      *duration,
		Warmup:        *warmup,
		Seed:          *seed,
		Preset:        p,
		Scale:         *scale,
		TrainFraction: *trainFrac,
		CacheBytes:    *cacheMB << 20,
		MissLatency:   time.Duration(*missMs) * time.Millisecond,
		Faults:        faultSched,
		Health:        health.Config{Threshold: *breakThresh, Backoff: *breakBackoff},
		ProbeInterval: *probeInterval,
		FrontRetries:  *retries,
		Overload:      ovcfg,
		Gray:          gcfg,
		CompareSim:    *sim,
	}
	h, err := loadgen.New(cfg)
	if err != nil {
		fail(err)
	}
	w := h.Workload()
	fmt.Printf("workload: %s seed %d — %d eval requests over %d files, schedule %s (%d requests)\n",
		w.Preset, w.Seed, w.EvalRequests, w.Files, w.Digest, w.Scheduled)

	res, err := h.RunAll()
	if err != nil {
		fail(err)
	}
	if err := res.WriteTable(os.Stdout); err != nil {
		fail(err)
	}
	if *out != "" {
		art := res.Artifact()
		art.Stamp(time.Now())
		f, err := os.Create(*out)
		if err != nil {
			fail(err)
		}
		if err := art.Encode(f); err != nil {
			f.Close()
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
		fmt.Printf("\nartifact written to %s\n", *out)
	}
}

// thinkTime maps -think-ms onto loadgen.Config.Think, whose zero value
// selects the 25ms default: an explicit 0 asks for no think time, which
// that field spells as negative.
func thinkTime(ms int) time.Duration {
	if ms <= 0 {
		return -1
	}
	return time.Duration(ms) * time.Millisecond
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "prord-loadgen:", err)
	os.Exit(1)
}
