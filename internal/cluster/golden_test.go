package cluster

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"
	"time"

	"prord/internal/dispatch"
	"prord/internal/mining"
	"prord/internal/overload"
	"prord/internal/policy"
	"prord/internal/trace"
)

// golden is what one simulated run is pinned to. Every other cluster
// determinism test compares a run with a second run of the same build,
// so a digit that drifts between builds passes them; these constants
// were captured once and a change to the simulator must reproduce them.
type golden struct {
	// digest is the FNV-64a of the core's full Recorder stream.
	digest uint64
	// events is Engine.Executed(): the number of events the run took.
	events uint64
	// thr and hit are the IEEE bits of Result.Throughput and HitRate;
	// resp is Result.MeanResponse in nanoseconds.
	thr, hit uint64
	resp     int64
	// counters renders goldenCounters.
	counters string
}

// goldenCounters lists every Metrics counter in declaration order.
func goldenCounters(res *Result) string {
	m := &res.Metrics
	return fmt.Sprint([]int64{
		m.Completed, m.MemoryHits, m.MemoryMisses, m.Dispatches, m.Handoffs,
		m.DirectForwards, m.Prefetches, m.PrefetchHits, m.Replications,
		m.RemoteFetches, m.Failovers, m.Failed, m.Shed, m.PrefetchShed,
		m.ReplicationsShed, m.BytesServed, m.DynamicServed,
	})
}

// goldenPRORD is the base of most rows: PRORD with every feature on
// four backends whose memory is well under the data set, so that caches
// evict.
func goldenPRORD() Config {
	return Config{
		Params:   smallParams(4, 1, 1),
		Policy:   policy.NewPRORD(policy.Thresholds{}),
		Features: AllFeatures(),
	}
}

// goldenSynth is testWorkload with every arrival time divided by
// compress, so that requests overlap and faults catch work in flight
// (0 leaves the trace alone).
func goldenSynth(requests int, seed int64, compress time.Duration) func(*testing.T) (*trace.Trace, *mining.Miner) {
	return func(t *testing.T) (*trace.Trace, *mining.Miner) {
		tr, m := testWorkload(t, requests, seed)
		if compress > 0 {
			for i := range tr.Requests {
				tr.Requests[i].Time /= compress
			}
		}
		return tr, m
	}
}

// traceSpan returns the first and last arrival offsets. (An eval
// split's offsets start partway through the full trace, so 0 is long
// before any traffic.)
func traceSpan(tr *trace.Trace) (first, last time.Duration) {
	if len(tr.Requests) == 0 {
		return 0, 0
	}
	return tr.Requests[0].Time, tr.Requests[len(tr.Requests)-1].Time
}

// TestGoldenRuns pins the simulator's digits over the hot path and over
// the cold paths the benchmark's sim-paper cell never runs. Do not edit
// a constant to make a change pass: a changed constant is a changed
// simulation.
func TestGoldenRuns(t *testing.T) {
	grayOn := &dispatch.GrayConfig{Detector: fastDetector(), Hedge: true}
	rows := []struct {
		name     string
		workload func(*testing.T) (*trace.Trace, *mining.Miner)
		// config builds the run's Config; first, mid and last are the
		// trace's first, middle and last arrival times.
		config func(first, mid, last time.Duration) Config
		want   golden
	}{
		{
			name: "prord-all", workload: goldenSynth(2000, 11, 0),
			config: func(_, _, _ time.Duration) Config { return goldenPRORD() },
			want: golden{digest: 0xf28630d113b9cbe5, events: 4696, thr: 0x403b0e2ae7cb0901, hit: 0x3fe2dcc151acd8f5, resp: 4804738,
				counters: "[1213 715 498 743 264 469 221 192 449 0 0 0 0 0 0 8701049 0]"},
		},
		{
			// Pinned memory smaller than some files: prefetches that cannot
			// be stored are unmarked. Algorithm 3 ticks at the compressed
			// trace's pace.
			name: "prord-busy", workload: goldenSynth(4000, 13, 300),
			config: func(_, _, _ time.Duration) Config {
				c := goldenPRORD()
				c.Params.PinnedMemory = 64 << 10
				c.ReplicationInterval = 50 * time.Millisecond
				return c
			},
			want: golden{digest: 0xe8ca093537baa675, events: 21114, thr: 0x4081cf1443df9782, hit: 0x3fda6395cde33645, resp: 69732219,
				counters: "[2401 990 1411 1108 669 1265 996 770 12332 0 0 0 0 0 0 15680157 0]"},
		},
		{
			name: "lard", workload: goldenSynth(2000, 11, 0),
			config: func(_, _, _ time.Duration) Config {
				return Config{Params: smallParams(4, 1, 1), Policy: policy.NewLARD(policy.Thresholds{})}
			},
			want: golden{digest: 0xbc6ff2b6876ca5af, events: 4370, thr: 0x403afba132a93e14, hit: 0x3fdb622308a72633, resp: 6585239,
				counters: "[1213 519 694 1213 436 0 0 0 0 0 0 0 0 0 0 8701049 0]"},
		},
		{
			name: "wrr", workload: goldenSynth(2000, 11, 0),
			config: func(_, _, _ time.Duration) Config {
				return Config{Params: smallParams(4, 1, 1), Policy: policy.NewWRR(4)}
			},
			want: golden{digest: 0xb5d6b9c62a9d71d8, events: 4587, thr: 0x403ae8ea0d5fb381, hit: 0x3fcfde3b83e784c0, resp: 8620460,
				counters: "[1213 302 911 0 37 1176 0 0 0 0 0 0 0 0 0 8701049 0]"},
		},
		{
			name: "extlard-remote", workload: goldenSynth(3000, 29, 0),
			config: func(_, _, _ time.Duration) Config {
				return Config{Params: smallParams(4, 4, 2), Policy: policy.NewExtLARD(policy.Thresholds{})}
			},
			want: golden{digest: 0x2647b30563677512, events: 6840, thr: 0x40402893bdbb969a, hit: 0x3fe110c37b071a6d, resp: 6104932,
				counters: "[1802 961 841 1802 63 0 0 0 0 530 0 0 0 0 0 13194880 0]"},
		},
		{
			name:     "dynamic",
			workload: func(t *testing.T) (*trace.Trace, *mining.Miner) { return dynamicWorkload(t, 0.3, 3) },
			config: func(_, _, _ time.Duration) Config {
				c := goldenPRORD()
				c.Gray = grayOn
				return c
			},
			want: golden{digest: 0xce52f94ccb9c8fd, events: 6340, thr: 0x40318b00c569bc2b, hit: 0x3fe2c63fc8d5c3aa, resp: 4919822,
				counters: "[1283 697 491 767 295 514 253 223 477 0 0 0 0 0 0 10341779 95]"},
		},
		{
			name: "crash-recover", workload: goldenSynth(3000, 103, 300),
			config: func(_, mid, last time.Duration) Config {
				c := goldenPRORD()
				c.Failures = []Failure{{Server: 1, At: mid, RecoverAt: mid + (last-mid)/2}}
				return c
			},
			want: golden{digest: 0xa071da92e24efb92, events: 6250, thr: 0x408a61d220e09213, hit: 0x3fe25c79cc1f93bc, resp: 35178201,
				counters: "[1805 1042 774 1030 509 766 218 270 0 0 11 0 0 0 0 14635564 0]"},
		},
		{
			name: "all-down", workload: goldenSynth(1500, 107, 300),
			config: func(_, mid, last time.Duration) Config {
				c := goldenPRORD()
				c.Params = smallParams(2, 1, 1)
				c.Failures = []Failure{
					{Server: 0, At: mid, RecoverAt: mid + (last-mid)/2},
					{Server: 1, At: mid, RecoverAt: mid + (last-mid)/2},
				}
				return c
			},
			want: golden{digest: 0x408f0c5681507a39, events: 2012, thr: 0x406ba2c5bde381a4, hit: 0x3fd315b79bf81a53, resp: 20513107,
				counters: "[373 116 273 272 69 115 113 84 0 0 0 560 0 0 0 2753636 0]"},
		},
		{
			name: "slow-hedge", workload: goldenSynth(4000, 223, 300),
			config: func(first, mid, last time.Duration) Config {
				c := goldenPRORD()
				c.Failures = []Failure{{Server: 2, At: first + (last-first)/8, RecoverAt: mid + (last-mid)/2, Mode: Slow, Slowdown: 20}}
				c.Gray = grayOn
				return c
			},
			want: golden{digest: 0xbcee8e08f6a25ad6, events: 10645, thr: 0x4088b1ba166274cb, hit: 0x3fe2f5e342872f5e, resp: 53343649,
				counters: "[2405 1425 980 1223 702 1166 316 384 0 0 0 0 0 0 0 16087859 0]"},
		},
		{
			name: "errrate-hedge", workload: goldenSynth(3000, 227, 300),
			config: func(first, mid, last time.Duration) Config {
				c := goldenPRORD()
				c.Failures = []Failure{
					{Server: 1, At: first + (last-first)/8, RecoverAt: mid + (last-mid)/2, Mode: ErrRate, ErrRate: 0.3},
					{Server: 2, At: first + (last-first)/8, Mode: Slow, Slowdown: 20},
					{Server: 3, At: mid, RecoverAt: mid + (last-mid)/4},
				}
				c.Gray = grayOn
				return c
			},
			want: golden{digest: 0xb68fcd87d229f857, events: 8153, thr: 0x407bfc651123fa27, hit: 0x3fe1ff27d41714b0, resp: 46115745,
				counters: "[1815 1023 796 900 436 904 316 357 0 0 5 0 0 0 0 12818834 0]"},
		},
		{
			name: "flap-hedge", workload: goldenSynth(3000, 229, 300),
			config: func(first, _, last time.Duration) Config {
				c := goldenPRORD()
				c.Failures = []Failure{
					{Server: 1, At: first + (last-first)/8, RecoverAt: last, Mode: Flap, FlapPeriod: (last - first) / 40},
					{Server: 2, At: first + (last-first)/8, Mode: Slow, Slowdown: 20},
				}
				c.Gray = grayOn
				return c
			},
			want: golden{digest: 0x79c12b64a796b4a2, events: 8120, thr: 0x407d9622803df5e8, hit: 0x3fe2e4d67b911979, resp: 38468899,
				counters: "[1808 1074 745 918 421 883 251 281 0 0 11 0 0 0 0 14862557 0]"},
		},
		{
			// The slow backend flaps too and so do the hedge targets, so
			// some races lose both legs and fall back to a plain retry.
			name: "flap-both-legs", workload: goldenSynth(4000, 319, 300),
			config: func(first, _, last time.Duration) Config {
				c := goldenPRORD()
				at := first + (last-first)/8
				c.Failures = []Failure{
					{Server: 2, At: at, Mode: Slow, Slowdown: 20},
					{Server: 2, At: at, RecoverAt: last, Mode: Flap, FlapPeriod: (last - first) / 24},
					{Server: 1, At: at, RecoverAt: last, Mode: Flap, FlapPeriod: (last - first) / 31},
					{Server: 3, At: at, RecoverAt: last, Mode: Flap, FlapPeriod: (last - first) / 37},
				}
				c.Gray = grayOn
				return c
			},
			want: golden{digest: 0x346a03926a493d57, events: 10958, thr: 0x4074c2ac564634d6, hit: 0x3fe39e6a96904809, resp: 47232516,
				counters: "[2398 1499 946 1067 619 1321 355 390 100 0 39 8 0 0 0 18706384 0]"},
		},
		{
			// A hair trigger: two slots and a short queue, so requests are
			// queued and granted, time out in the queue, and are shed.
			name: "overload-queue", workload: goldenSynth(3000, 7, 100),
			config: func(_, _, _ time.Duration) Config {
				c := goldenPRORD()
				c.Params = smallParams(2, 1, 1)
				c.Overload = &overload.Config{
					CapacityPerBackend: 1,
					QueueLimit:         4,
					QueueTimeout:       5 * time.Millisecond,
					MinHold:            10 * time.Millisecond,
				}
				return c
			},
			want: golden{digest: 0xb5250495305d0d2d, events: 3730, thr: 0x406567e63fb16997, hit: 0x3fcc4365a399d142, resp: 14431522,
				counters: "[471 104 367 429 100 42 22 15 0 0 0 0 1373 56 0 3414613 0]"},
		},
		{
			name: "overload-crash", workload: goldenSynth(3000, 9, 100),
			config: func(_, mid, last time.Duration) Config {
				c := goldenPRORD()
				c.Params = smallParams(2, 1, 1)
				c.Overload = &overload.Config{CapacityPerBackend: 1, QueueLimit: 8, QueueTimeout: 20 * time.Millisecond}
				c.Gray = grayOn
				c.Failures = []Failure{
					{Server: 0, At: mid, RecoverAt: mid + (last-mid)/4},
					{Server: 1, At: mid, RecoverAt: mid + (last-mid)/4},
					{Server: 1, At: mid + (last-mid)/2, Mode: Slow, Slowdown: 20},
				}
				return c
			},
			want: golden{digest: 0x10b2378d6d7227a9, events: 3617, thr: 0x4055eef65181be1a, hit: 0x3fc3333333333333, resp: 24409148,
				counters: "[395 60 340 400 50 0 0 0 0 0 0 584 824 70 0 2671132 0]"},
		},
		{
			name: "power", workload: goldenSynth(4000, 207, 400),
			config: func(_, mid, _ time.Duration) Config {
				c := goldenPRORD()
				c.Params = smallParams(8, 1, 1)
				c.Power = PowerParams{Enabled: true, Interval: 20 * time.Millisecond, TargetLoad: 4, WakeLatency: 10 * time.Millisecond}
				c.Failures = []Failure{{Server: 0, At: mid}}
				return c
			},
			want: golden{digest: 0xb4da43aaa847c58a, events: 8492, thr: 0x40920bdd5d91fe37, hit: 0x3fe51732ca8d3bfd, resp: 20636673,
				counters: "[2445 1651 854 1077 632 1356 435 487 0 0 60 0 0 0 0 18752051 0]"},
		},
		{
			// The lightly loaded trace leaves one backend awake; crashing
			// it forces the core's wake-on-demand fallback.
			name: "power-wake-fallback", workload: goldenSynth(2000, 213, 0),
			config: func(_, mid, _ time.Duration) Config {
				c := goldenPRORD()
				c.Power = PowerParams{Enabled: true, Interval: 100 * time.Millisecond}
				c.Failures = []Failure{{Server: 0, At: mid}}
				return c
			},
			want: golden{digest: 0xc511b2c29289963e, events: 6491, thr: 0x4027110931cb4937, hit: 0x3fdf1b2c55cf5fd2, resp: 7608819,
				counters: "[1253 609 644 822 70 430 281 210 757 0 0 0 0 0 0 9068502 0]"},
		},
		{
			name: "gdsf", workload: goldenSynth(2000, 43, 0),
			config: func(_, _, _ time.Duration) Config {
				c := goldenPRORD()
				c.UseGDSF = true
				return c
			},
			want: golden{digest: 0x83bdad4c20d8d0e, events: 4836, thr: 0x403a4f3f904b25c5, hit: 0x3fe130463796ac9e, resp: 5494983,
				counters: "[1225 658 567 778 330 447 175 154 485 0 0 0 0 0 0 9427313 0]"},
		},
	}
	for _, row := range rows {
		row := row
		t.Run(row.name, func(t *testing.T) {
			tr, m := row.workload(t)
			first, last := traceSpan(tr)
			cfg := row.config(first, tr.Requests[len(tr.Requests)/2].Time, last)
			cfg.Miner = m
			h := fnv.New64a()
			cfg.Recorder = func(r dispatch.Record) {
				fmt.Fprintf(h, "%d|%d|%s|%d|%d|%d|%t|%t|%t|%t|%t\n",
					r.Seq, r.Conn, r.Path, r.Tier, r.Verdict, r.Server,
					r.Embedded, r.Dispatch, r.Handoff, r.Switched, r.Routed)
			}
			cl, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := cl.Run(tr)
			if err != nil {
				t.Fatal(err)
			}
			got := golden{
				digest:   h.Sum64(),
				events:   cl.eng.Executed(),
				thr:      math.Float64bits(res.Throughput),
				hit:      math.Float64bits(res.HitRate),
				resp:     int64(res.MeanResponse),
				counters: goldenCounters(res),
			}
			if got != row.want {
				t.Errorf("simulated digits moved\n got: golden{digest: %#x, events: %d, thr: %#x, hit: %#x, resp: %d,\n\tcounters: %q},\nwant: %+v",
					got.digest, got.events, got.thr, got.hit, got.resp, got.counters, row.want)
			}
			goldenCoverage(t, row.name, res)
		})
	}
}

// goldenCoverage checks that a row still reaches the cold path it is
// there for; a row that stops exercising its path pins nothing.
func goldenCoverage(t *testing.T, name string, res *Result) {
	t.Helper()
	m := &res.Metrics
	need := func(what string, n int64) {
		t.Helper()
		if n == 0 {
			t.Errorf("row %s no longer exercises its path: %s is 0", name, what)
		}
	}
	switch name {
	case "prord-all":
		need("Prefetches", m.Prefetches)
		need("PrefetchHits", m.PrefetchHits)
		need("Replications", m.Replications)
	case "extlard-remote":
		need("RemoteFetches", m.RemoteFetches)
	case "dynamic":
		need("DynamicServed", m.DynamicServed)
	case "crash-recover":
		need("Failovers", m.Failovers)
	case "all-down":
		need("Failed", m.Failed)
	case "slow-hedge":
		need("HedgeWins", res.Gray.HedgeWins)
		need("HedgeCancels", res.Gray.HedgeCancels)
		need("Ejections", res.Gray.Ejections)
	case "errrate-hedge", "flap-hedge", "flap-both-legs":
		need("Failovers", m.Failovers)
		need("HedgesFired", res.Gray.HedgesFired)
	case "overload-queue", "overload-crash":
		need("Shed", m.Shed)
	case "power", "power-wake-fallback":
		need("Wakes", res.Wakes)
		need("Sleeps", res.Sleeps)
	}
}
