package main

import (
	"encoding/json"
	"fmt"
	"io"
)

// metric names one number the benchmark prints. The two lists below
// are the benchmark's contract: BENCHMARK.json repeats them (a test
// checks the two agree) and later changes cite them by name.
type metric struct {
	name, unit string
	// better is the direction an improvement moves the metric in.
	better string
	// bound, for end-to-end metrics only, is the share of its median by
	// which the metric may worsen before a change counts as a regression.
	bound float64
}

// endToEnd is printed by an untraced run, the same ten on every
// workload; on sim-paper throughput, latency and CPU per request are
// the simulated cluster's, in virtual time. Definitions are in
// README.md. A bound is at least three
// times the spread the metric showed over ten seeds on its noisiest
// workload: the four timings and setup_s sit at the largest bound the
// driver accepts because the sizing box's CPU speed drifts by a fifth
// over minutes; peak_rss_mb is there too because sim-paper's peak hangs
// on when the collector runs during mining (spread 0.09); hit_rate is
// sized by miss-bound, whose hit rate depends on the arrival order by
// 1.5 % either way; the counts are the sharp part.
var endToEnd = []metric{
	{"req_per_s", "1/s", "higher", 0.25},
	{"lat_p50_us", "us", "lower", 0.25},
	{"lat_p95_us", "us", "lower", 0.25},
	{"cpu_us_per_req", "us", "lower", 0.25},
	{"allocs_per_req", "count", "lower", 0.02},
	{"hit_rate", "ratio", "higher", 0.08},
	{"dispatch_per_req", "ratio", "lower", 0.03},
	{"ok_rate", "ratio", "higher", 0.001},
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// perLayer is printed by a traced run. A metric whose layer a workload
// does not execute reads 0 there (httpfront.* on sim-paper, cluster.*
// on the live workloads).
var perLayer = []metric{
	{"clf.parse_ns_per_line", "ns", "lower", 0},
	{"trace.sessionize_ns_per_req", "ns", "lower", 0},
	{"mining.mine_ns_per_req", "ns", "lower", 0},
	{"mining.observe_ns", "ns", "lower", 0},
	{"mining.fold_ns_per_obs", "ns", "lower", 0},
	{"mining.prefetch_use_ratio", "ratio", "higher", 0},
	{"httpfront.prefetches_per_req", "ratio", "lower", 0},
	{"httpfront.prefetch_hints_dropped", "count", "lower", 0},
	{"replicate.copies", "count", "lower", 0},
	{"policy.route_ns", "ns", "lower", 0},
	{"policy.calls_per_req", "ratio", "lower", 0},
	{"dispatch.route_done_ns", "ns", "lower", 0},
	{"dispatch.route_done_par_ns", "ns", "lower", 0},
	{"dispatch.plan_proactive_ns", "ns", "lower", 0},
	{"dispatch.allocs_per_decision", "count", "lower", 0},
	{"dispatch.conn_open_close_ns", "ns", "lower", 0},
	{"dispatch.direct_forward_ratio", "ratio", "higher", 0},
	{"dispatch.handoffs_per_req", "ratio", "lower", 0},
	{"httpfront.serve_p50_us", "us", "lower", 0},
	{"httpfront.serve_p95_us", "us", "lower", 0},
	{"httpfront.self_p50_us", "us", "lower", 0},
	{"httpfront.tax_p50_us", "us", "lower", 0},
	{"httpfront.backend_dials_per_req", "ratio", "lower", 0},
	{"httpfront.front_conns_per_req", "ratio", "lower", 0},
	{"httpfront.errors", "count", "lower", 0},
	{"httpfront.retries", "count", "lower", 0},
	{"httpfront.failovers", "count", "lower", 0},
	{"httpfront.shed", "count", "lower", 0},
	{"health.ejections", "count", "lower", 0},
	{"overload.tier_transitions", "count", "lower", 0},
	{"health.detector_observe_ns", "ns", "lower", 0},
	{"overload.estimator_observe_ns", "ns", "lower", 0},
	{"backend.serve_p50_us", "us", "lower", 0},
	{"backend.direct_p50_us", "us", "lower", 0},
	{"backend.hits", "count", "higher", 0},
	{"backend.misses", "count", "lower", 0},
	{"backend.prefetches", "count", "lower", 0},
	{"backend.load_skew", "ratio", "lower", 0},
	{"cache.lru_get_put_ns", "ns", "lower", 0},
	{"sim.event_ns", "ns", "lower", 0},
	{"cluster.run_ns_per_req", "ns", "lower", 0},
	{"cluster.prord_over_lard_tput", "ratio", "higher", 0},
	{"cluster.prord_over_wrr_tput", "ratio", "higher", 0},
	{"client.self_p50_us", "us", "lower", 0},
	{"client.lat_p99_us", "us", "lower", 0},
	{"client.lat_max_us", "us", "lower", 0},
	{"client.fail_rate", "ratio", "lower", 0},
	{"runtime.gc_cpu_frac", "ratio", "lower", 0},
	{"runtime.bytes_per_req", "B", "lower", 0},
	{"runtime.heap_live_mb", "MB", "lower", 0},
	{"runtime.goroutines_end", "count", "lower", 0},
	{"host.calib_ns", "ns", "lower", 0},
	{"trace.overhead_pct", "%", "lower", 0},
}

// report is one run's outcome.
type report struct {
	correct   bool
	attempted int
	failed    int
	values    map[string]float64
	// problems says why correct is false.
	problems []string
}

func newReport() *report {
	return &report{correct: true, values: make(map[string]float64)}
}

func (r *report) set(name string, v float64) { r.values[name] = v }

func (r *report) problem(format string, args ...any) {
	r.correct = false
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// print writes every metric of list by name with its unit, then, as
// the last line, the one JSON object the driver reads.
func (r *report) print(w io.Writer, list []metric) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct, r.attempted, r.failed, make(map[string]value, len(list))}
	for _, m := range list {
		v, ok := r.values[m.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", m.name)
		}
		fmt.Fprintf(w, "%-34s %16.6f %s\n", m.name, v, m.unit)
		out.Metrics[m.name] = value{v, m.unit}
	}
	for _, p := range r.problems {
		fmt.Fprintln(w, "INCORRECT:", p)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
