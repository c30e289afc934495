package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"

	"prord/internal/cluster"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestQuantileIsNearestRank(t *testing.T) {
	s := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct{ q, want float64 }{
		{0, 10}, {0.5, 50}, {0.51, 60}, {0.95, 100}, {0.9, 90}, {1, 100},
	} {
		if got := quantile(s, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
}

func TestMedian(t *testing.T) {
	in := []float64{5, 1, 4}
	if got := median(in); got != 4 {
		t.Errorf("median = %v, want 4", got)
	}
	if in[0] != 5 {
		t.Error("median reordered its input")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
}

func TestSliceBounds(t *testing.T) {
	b := sliceBounds(12, 5)
	want := []int{0, 2, 4, 7, 9, 12}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("sliceBounds(12, 5) = %v, want %v", b, want)
		}
	}
}

// One slice of five carries a disturbance ten times the rest; the
// median slice must not see it, and failed requests (-1) carry no
// latency.
func TestSliceQuantileIgnoresOneBadSlice(t *testing.T) {
	var samples []float64
	for k := 0; k < slices; k++ {
		for i := 1; i <= 100; i++ {
			v := float64(i)
			if k == 3 {
				v *= 10
			}
			samples = append(samples, v)
		}
	}
	samples[0] = -1
	if got := sliceQuantile(samples, 0.5); got != 50 {
		t.Errorf("p50 = %v, want 50", got)
	}
	if got := sliceQuantile(samples, 0.95); got != 95 {
		t.Errorf("p95 = %v, want 95", got)
	}
}

// Python: statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) gives
// [2.75, 5.5, 8.25]; quantiles([3,1,2], n=4) gives [1.0, 2.0, 3.0].
func TestQuartileSpreadMatchesPython(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := quartileSpread(ten), (8.25-2.75)/5.5; !near(got, want) {
		t.Errorf("spread of 1..10 = %v, want %v", got, want)
	}
	if got, want := quartileSpread([]float64{3, 1, 2}), 1.0; !near(got, want) {
		t.Errorf("spread of 3,1,2 = %v, want %v", got, want)
	}
}

// client [0,100] -> front [10,90] -> two backend legs [20,40] and
// [30,60] that overlap, plus one that runs past the front's end.
func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: spanClient, Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: spanFront, Start: 10, End: 90},
		{ID: 3, Parent: 2, Name: spanBackend, Start: 20, End: 40},
		{ID: 4, Parent: 2, Name: spanBackend, Start: 30, End: 60},
		{ID: 5, Parent: 2, Name: spanBackend, Start: 80, End: 95},
	}
	self := selfTimes(spans)
	if got := self[spanClient][0]; got != 20 {
		t.Errorf("client self = %v, want 20", got)
	}
	// 80 long, children cover [20,60] and [80,90]: 50.
	if got := self[spanFront][0]; got != 30 {
		t.Errorf("front self = %v, want 30", got)
	}
	if got := self[spanBackend]; len(got) != 3 || got[0] != 20 || got[1] != 30 || got[2] != 15 {
		t.Errorf("backend self = %v, want [20 30 15]", got)
	}
	if got := durations(spans)[spanFront][0]; got != 80 {
		t.Errorf("front duration = %v, want 80", got)
	}
}

// Hits take 100, misses 1000; with 40 % misses no layer's own median
// is a miss, yet the median request's parts must still add up to it.
func TestMedianRequestPartsAddUp(t *testing.T) {
	var spans []span
	id := uint64(0)
	for req := int64(0); req < 100; req++ {
		backend := int64(40)
		if req%5 < 2 {
			backend = 940
		}
		base := req * 10000
		spans = append(spans,
			span{ID: id + 1, Req: req, Name: spanClient, Start: base, End: base + backend + 60},
			span{ID: id + 2, Parent: id + 1, Req: req, Name: spanFront, Start: base + 10, End: base + backend + 50},
			span{ID: id + 3, Parent: id + 2, Req: req, Name: spanBackend, Start: base + 30, End: base + 30 + backend},
		)
		id += 3
	}
	costs := requestCosts(spans)
	if len(costs) != 100 || costs[0].seen != 100 || costs[99].seen != 1000 {
		t.Fatalf("requestCosts: %d requests, fastest %v, slowest %v", len(costs), costs[0].seen, costs[99].seen)
	}
	seen, self := medianRequest(costs)
	if seen != 100 {
		t.Errorf("median request seen = %v, want 100 (a hit)", seen)
	}
	if sum := self[spanClient] + self[spanFront] + self[spanBackend]; !near(sum, seen) {
		t.Errorf("parts sum to %v, whole is %v", sum, seen)
	}
	if self[spanClient] != 20 || self[spanFront] != 40 || self[spanBackend] != 40 {
		t.Errorf("parts = %v, want client 20, front 40, backend 40", self)
	}
}

func TestSpanHeaderRoundTrip(t *testing.T) {
	req, id, ok := parseHeaderValue(headerValue(12345, 678))
	if !ok || req != 12345 || id != 678 {
		t.Errorf("round trip gave %d %d %v", req, id, ok)
	}
	for _, bad := range []string{"", "12", "a.b", "1."} {
		if _, _, ok := parseHeaderValue(bad); ok {
			t.Errorf("parseHeaderValue(%q) accepted", bad)
		}
	}
}

func TestDecisionBudget(t *testing.T) {
	c := costs{routeDone: 1000, planProactive: 2000, connOpenClose: 1500, policyRoute: 400, miningObserve: 600}
	n := calls{policyPerReq: 0.25, pagesPerReq: 0.2, connsPerReq: 0.1}
	lines := decisionBudget(c, n)
	// policy 100, mining 120, dispatch 1000 + 400 + 50 - 100 - 120.
	want := map[string]float64{"dispatch": 1230, "policy": 100, "mining": 120}
	for _, l := range lines {
		if !near(l.ns, want[l.layer]) {
			t.Errorf("%s = %v, want %v", l.layer, l.ns, want[l.layer])
		}
	}
	lines = withRest(lines, 5000, "rest")
	if last := lines[len(lines)-1]; last.layer != "rest" || !near(last.ns, 3550) {
		t.Errorf("rest = %+v, want 3550", last)
	}
	// A first touch cheaper than a routed request charges nothing extra.
	c.connOpenClose = 500
	if got := decisionBudget(c, n)[0].ns; !near(got, 1180) {
		t.Errorf("dispatch with cheap first touch = %v, want 1180", got)
	}
}

func TestMedianSetupIsPerStage(t *testing.T) {
	total, st := medianSetup([]setupTimes{
		{parse: 1e9, mine: 3e9},
		{parse: 2e9, mine: 1e9},
		{parse: 3e9, mine: 2e9},
	})
	if st.parse != 2e9 || st.mine != 2e9 {
		t.Errorf("stages = %+v, want parse and mine 2s", st)
	}
	if total != 4 {
		t.Errorf("total = %v s, want 4 (totals are 4, 3, 5)", total)
	}
}

func TestSimCPUPerReqIsBusyTimeOverThroughput(t *testing.T) {
	// Two backends busy half and a quarter of the time at 1000 req/s
	// spend 0.75 CPU-seconds per second on 1000 requests: 750 us each.
	res := &cluster.Result{Throughput: 1000, Servers: []cluster.ServerStats{{CPUUtilization: 0.5}, {CPUUtilization: 0.25}}}
	if got := simCPUPerReq(res); !near(got, 750) {
		t.Errorf("simCPUPerReq = %v us, want 750", got)
	}
}

func TestScaledKeepsWorkFixed(t *testing.T) {
	w, _ := workloadByName("proxy-hot")
	if h := w.scaled(0.5); h.warm != 10000 || h.measured != 100000 {
		t.Errorf("half of proxy-hot = %d + %d", h.warm, h.measured)
	}
	s, _ := workloadByName("sim-paper")
	if h := s.scaled(0.25); h.scale != 0.25 {
		t.Errorf("quarter of sim-paper has scale %v", h.scale)
	}
}

// BENCHMARK.json and the runner must name the same workloads and
// metrics with the same units, directions and bounds.
func TestBenchmarkJSONMatchesRunner(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string  `json:"name"`
		Why    string  `json:"why"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var doc struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the runner", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the runner", i, doc.Workloads[i].Name, w.name)
		}
	}
	check := func(kind string, got []entry, want []metric) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the runner", len(got), kind, len(want))
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.name || g.Unit != m.unit || g.Better != m.better || g.Bound != m.bound {
				t.Errorf("%s metric %d: %+v in BENCHMARK.json, %+v in the runner", kind, i, g, m)
			}
		}
	}
	check("end-to-end", doc.EndToEnd, endToEnd)
	check("per-layer", doc.PerLayer, perLayer)
}
