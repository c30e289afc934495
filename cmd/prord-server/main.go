// Command prord-server runs a live PRORD web cluster on localhost: n demo
// backend servers (each with its own memory cache and simulated disk
// latency) behind the PRORD HTTP front-end distributor. The site content
// and the mined navigation model come from one of the paper's synthetic
// workloads.
//
// Usage:
//
//	prord-server -addr :8080 -backends 4 -policy PRORD
//	curl -s http://localhost:8080/g0/p0.html -D- -o /dev/null
//	curl -s http://localhost:8080/_prord/stats
//	curl -s http://localhost:8080/_prord/cluster   # incl. per-backend health
//
// Watch the X-Prord-Backend and X-Prord-Cache response headers to see
// locality routing and cache warming at work. Backend failures are
// handled by per-backend circuit breakers with failover retry; tune
// them with the -breaker-*, -probe-* and -retries flags. Overload
// control (the degrade ladder plus Critical-tier admission control) is
// on by default; tune it with the -overload-* flags or disable it with
// -overload=false. Shed responses are 503s carrying X-Prord-Shed and
// Retry-After; the current tier is visible on /_prord/cluster.
//
// The gray-failure resilience layer is on by default: a relative
// latency-outlier detector ejects backends that turn slow without
// failing (soft exclusion plus progressive session rebinding), and
// idempotent static requests still unanswered after the pooled-p95
// delay are hedged to a second backend with the first committed
// response winning. Tune with the -gray-*, -hedge* and -deadline
// flags or disable with -gray=false; counters are visible on
// /_prord/cluster under "gray".
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"os"
	"time"

	"prord/internal/health"
	"prord/internal/httpfront"
	"prord/internal/mining"
	"prord/internal/overload"
	"prord/internal/policy"
	"prord/internal/trace"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "front-end listen address")
		backends = flag.Int("backends", 4, "number of demo backend servers")
		polName  = flag.String("policy", "PRORD", "distribution policy (see prord-sim)")
		workload = flag.String("workload", "synthetic", "site/workload preset: cs, worldcup, synthetic")
		cacheMB  = flag.Int64("cache-mb", 4, "per-backend memory cache in MiB")
		missMs   = flag.Int("miss-ms", 10, "simulated disk latency per backend miss (ms)")
		seed     = flag.Int64("seed", 42, "site generation seed")
		model    = flag.String("model", "", "load a mined model (logmine -o) instead of mining at startup")

		retries       = flag.Int("retries", 0, "failover retries per request (0: default of 1, negative disables)")
		probeInterval = flag.Duration("probe-interval", time.Second, "active health-probe interval for tripped backends (0 disables)")
		probeTimeout  = flag.Duration("probe-timeout", 0, "health-probe request timeout (0: default 1s)")
		breakThresh   = flag.Int("breaker-threshold", 0, "consecutive failures that trip a backend's breaker (0: default 3)")
		breakBackoff  = flag.Duration("breaker-backoff", 0, "initial breaker open time before a half-open trial (0: default 500ms)")
		breakMax      = flag.Duration("breaker-max-backoff", 0, "breaker backoff ceiling under repeated failed trials (0: default 30s)")

		grayOn   = flag.Bool("gray", true, "enable the gray-failure resilience layer: latency-outlier detector with slow-backend ejection and progressive session rebinding")
		hedge    = flag.Bool("hedge", true, "with -gray: hedge idempotent static requests after the pooled-p95 delay, first committed response wins (stands down at Saturated tier)")
		hedgeCap = flag.Int("hedge-cap", 0, "with -hedge: max outstanding hedged requests per backend (0: default 2)")
		deadline = flag.Duration("deadline", 0, "with -gray: per-request deadline budget at Normal tier; halves at Saturated, quarters at Critical (0 disables)")
		grayMult = flag.Float64("gray-multiplier", 0, "with -gray: relative outlier threshold k over the pool median (0: default 3)")
		grayHold = flag.Duration("gray-hold", 0, "with -gray: time over threshold before ejection (0: default 2s)")

		overloadOn = flag.Bool("overload", true, "enable the overload degrade ladder and admission control")
		capacity   = flag.Int("overload-capacity", 0, "in-flight capacity per backend before the cluster counts as saturated (0: default 64)")
		queueLimit = flag.Int("overload-queue", 0, "accept-queue slots at Critical tier (0: default 16, negative disables queuing)")
		minHold    = flag.Duration("overload-min-hold", 0, "minimum time at a tier before stepping back down (0: default 1s)")
	)
	flag.Parse()
	if *backends <= 0 {
		fail(fmt.Errorf("-backends must be positive, got %d", *backends))
	}
	if *cacheMB <= 0 {
		fail(fmt.Errorf("-cache-mb must be positive, got %d", *cacheMB))
	}
	if *missMs < 0 {
		fail(fmt.Errorf("-miss-ms must not be negative, got %d", *missMs))
	}

	preset, err := trace.ParsePreset(*workload)
	if err != nil {
		fail(fmt.Errorf("-workload: %w", err))
	}
	// Build the site, a training trace and the miner (or load a model
	// mined offline with logmine -o).
	site, tr, err := trace.GeneratePreset(preset, 0.1, *seed)
	if err != nil {
		fail(err)
	}
	var miner *mining.Miner
	if *model != "" {
		f, err := os.Open(*model)
		if err != nil {
			fail(err)
		}
		miner, err = mining.Load(f)
		f.Close()
		if err != nil {
			fail(err)
		}
		fmt.Printf("loaded model from %s: %s\n", *model, miner.Summary())
	} else {
		miner = mining.Mine(tr, mining.DefaultOptions())
	}
	files := site.FileTable()

	// Start the backend servers on ephemeral ports. Each backend exposes
	// its own counters on /_prord/stats next to the content it serves.
	var urls []*url.URL
	var demos []*httpfront.DemoBackend
	for i := 0; i < *backends; i++ {
		b := httpfront.NewDemoBackend(fmt.Sprintf("backend-%d", i), files,
			*cacheMB<<20, time.Duration(*missMs)*time.Millisecond)
		demos = append(demos, b)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fail(err)
		}
		bmux := http.NewServeMux()
		bmux.Handle("/_prord/stats", b.StatsHandler())
		bmux.Handle("/", b)
		srv := &http.Server{Handler: bmux}
		go func() {
			if err := srv.Serve(ln); err != http.ErrServerClosed {
				fail(err)
			}
		}()
		u, err := url.Parse("http://" + ln.Addr().String())
		if err != nil {
			fail(err)
		}
		urls = append(urls, u)
		fmt.Printf("backend-%d: %s\n", i, u)
	}

	pol, err := policy.ByName(*polName, *backends, policy.Thresholds{})
	if err != nil {
		fail(err)
	}
	var ovcfg *overload.Config
	if *overloadOn {
		ovcfg = &overload.Config{
			CapacityPerBackend: *capacity,
			QueueLimit:         *queueLimit,
			MinHold:            *minHold,
		}
	}
	var gcfg *httpfront.GrayConfig
	if *grayOn {
		gcfg = &httpfront.GrayConfig{
			Detector: health.DetectorConfig{Multiplier: *grayMult, Hold: *grayHold},
			Hedge:    *hedge,
			HedgeCap: *hedgeCap,
			Deadline: *deadline,
		}
	}
	dist, err := httpfront.New(httpfront.Config{
		Backends: urls,
		Policy:   pol,
		Miner:    miner,
		Prefetch: *polName == "PRORD",
		Retries:  *retries,
		Health: health.Config{
			Threshold:  *breakThresh,
			Backoff:    *breakBackoff,
			MaxBackoff: *breakMax,
		},
		ProbeInterval: *probeInterval,
		ProbeTimeout:  *probeTimeout,
		ProbeSeed:     *seed,
		Overload:      ovcfg,
		Gray:          gcfg,
	})
	if err != nil {
		fail(err)
	}
	defer dist.Close()

	mux := http.NewServeMux()
	mux.Handle("/_prord/stats", httpfront.StatsHandler(dist))
	mux.Handle("/_prord/cluster", httpfront.ClusterStatsHandler(dist, demos))
	mux.Handle("/", dist)

	fmt.Printf("prord-server: %s policy, %d backends, site %s (%d files)\n",
		pol.Name(), *backends, *workload, len(files))
	fmt.Printf("front-end listening on %s — try a page like %s\n", *addr, examplePage(site))
	if err := http.ListenAndServe(*addr, mux); err != nil {
		fail(err)
	}
}

func examplePage(site *trace.Site) string {
	if len(site.Pages) > 0 {
		return site.Pages[0].Path
	}
	return "/"
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "prord-server:", err)
	os.Exit(1)
}
