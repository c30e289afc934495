package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"time"

	"prord/internal/clf"
	"prord/internal/randutil"
	"prord/internal/trace"
)

// nominalSeconds is the -seconds value the request counts below are
// stated for. Another value scales every count in proportion, so a run
// is always a stated amount of work, never a duration that a slow
// machine would fill with fewer requests.
const nominalSeconds = 20

// liveBackends is prord-server's default pool size.
const liveBackends = 4

// missBoundCacheBytes is each backend's cache on miss-bound. It was
// sized once so that PRORD's hit rate lands inside [0.60, 0.75] — well
// clear of 0.9, where one point of hit rate is eight percent of
// throughput, and of any rate that puts p50 or p95 on the boundary
// between the hit and the miss mode — and is frozen: a later change
// that moves the hit rate must show as hit_rate, not be tuned away here.
const missBoundCacheBytes = 2 << 20

// workload is one fixed set of inputs and settings.
type workload struct {
	name string
	// why is the one sentence BENCHMARK.json carries.
	why string
	// sim runs the discrete-event simulator; otherwise the live
	// front-end over loopback sockets.
	sim    bool
	preset trace.Preset
	scale  float64
	train  float64
	// pagesPerSession overrides the preset's mean session length when
	// positive.
	pagesPerSession float64
	missLatency     time.Duration
	cacheBytes      int64
	// warm and measured are request counts at nominalSeconds.
	warm, measured int
	// wall is the expected wall time of a whole run, traced or not, at
	// nominalSeconds; a run that takes three times as long aborts as
	// failed.
	wall time.Duration
	// hitLo and hitHi are the band the hit rate must stay in for the
	// workload to stress the layers it was chosen for.
	hitLo, hitHi float64
}

var workloads = []workload{
	{
		name:   "proxy-hot",
		why:    "Whole site resident and misses free, so front-end CPU (httpfront, net/http, dispatch, health and overload observers) is the whole cost; a proxy-tax saving must show here.",
		preset: trace.PresetSynthetic, scale: 20, train: 0.5,
		missLatency: -1, cacheBytes: 64 << 20,
		warm: 20000, measured: 200000, wall: 30 * time.Second,
		hitLo: 0.99, hitHi: 1,
	},
	{
		name:   "conn-churn",
		why:    "Same site with one page per connection, so accept, first-touch Route, session bind and dials dominate; a change that trades per-connection cost for per-request speed loses here.",
		preset: trace.PresetSynthetic, scale: 20, train: 0.5, pagesPerSession: 1,
		missLatency: -1, cacheBytes: 64 << 20,
		warm: 15000, measured: 150000, wall: 30 * time.Second,
		hitLo: 0.99, hitHi: 1,
	},
	{
		name:   "miss-bound",
		why:    "8 ms misses and a cache sized for a 0.60-0.75 hit rate, so policy, prefetch, cache and replication decide the result through hit_rate; CPU savings must show no change here.",
		preset: trace.PresetSynthetic, scale: 20, train: 0.5,
		missLatency: 8 * time.Millisecond, cacheBytes: missBoundCacheBytes,
		warm: 4000, measured: 12000, wall: 35 * time.Second,
		hitLo: 0.60, hitHi: 0.75,
	},
	{
		name:   "sim-paper",
		why:    "The paper's WorldCup run in the simulator, no sockets: throughput, latency, hit rate and dispatch frequency are the simulated cluster's, exact for a seed, so reproduction drift shows to the digit.",
		sim:    true,
		preset: trace.PresetWorldCup, scale: 1, train: 0.4,
		wall:  30 * time.Second,
		hitLo: 0.9, hitHi: 1,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// scaled returns w with its request counts (live) or trace scale (sim)
// multiplied by factor.
func (w workload) scaled(factor float64) workload {
	if w.sim {
		w.scale *= factor
	} else {
		w.warm = int(float64(w.warm) * factor)
		w.measured = int(float64(w.measured) * factor)
		if w.measured < slices {
			w.measured = slices
		}
	}
	return w
}

// inputSeed generates the web site and the sessions that walk it, the
// same on every run. The site's file sizes, bundle sizes and link graph
// fix the share of requests that are embedded objects (dispatch_per_req)
// and the share of the data set a cache holds (hit_rate); which sessions
// a window replays fixes the rest. With a site per seed those metrics
// moved from seed to seed by four times the bounds they were meant to
// have, and with the site fixed but the sessions drawn per seed,
// miss-bound's hit rate — over the 370 sessions a window of 8 ms misses
// has room for — still by 6 %. So the run's seed decides only the order
// the same sessions arrive in. That still moves miss-bound's hit rate
// by 1.5 % either way — which backend comes to own which files depends
// on the history, whatever the seed does short of nothing — and that,
// not the sampling, is what hit_rate's bound is sized for.
const inputSeed = 1

// simLoadFactor compresses the WorldCup trace's arrival times the way
// the repo's experiment runner does (LoadFactor 30 x the preset's 0.15
// load scale), so the simulated cluster is loaded as in Fig. 7 and the
// PRORD-over-LARD throughput ratio means something.
const simLoadFactor = 30 * 0.15

// inputs is everything a run needs that depends only on the workload
// and the seed. Generating it is the benchmark's work, not the
// program's, and is never timed.
type inputs struct {
	files map[string]int64
	// log is the training prefix as a Common Log Format access log, the
	// form the program reads it in.
	log      []byte
	logLines int
	eval     *trace.Trace
	// scripts are eval's sessions in replay order.
	scripts []trace.SessionScript
	// scheduled is how many requests the digest covers: at least warm +
	// measured, rounded up to a whole session (the whole trace for sim).
	scheduled int
	digest    string
}

func generate(w workload, seed int64) (*inputs, error) {
	sc, tc, err := trace.PresetConfigs(w.preset, w.scale)
	if err != nil {
		return nil, err
	}
	if w.pagesPerSession > 0 {
		tc.MeanPagesPerSession = w.pagesPerSession
	}
	gen := randutil.New(inputSeed)
	site, err := trace.GenerateSite(sc, gen)
	if err != nil {
		return nil, err
	}
	full, err := trace.Generate(w.preset.String(), site, tc, gen)
	if err != nil {
		return nil, err
	}
	if w.sim {
		for i := range full.Requests {
			full.Requests[i].Time = time.Duration(float64(full.Requests[i].Time) / simLoadFactor)
		}
	}
	train, eval := full.Split(w.train)
	log, err := accessLog(train)
	if err != nil {
		return nil, err
	}
	scripts := eval.SessionScripts()
	if len(scripts) == 0 {
		return nil, fmt.Errorf("workload %s: evaluation split has no sessions", w.name)
	}
	order := randutil.New(seed)
	need := w.warm + w.measured
	if w.sim {
		need = len(eval.Requests)
		eval = reslot(eval, scripts, order)
		scripts = eval.SessionScripts()
	} else {
		// The warm-up and the measured window are each the next sessions
		// of the trace that cover their share of the work, so that every
		// seed measures the same requests; the seed picks the session
		// each window starts at, and the replay wraps around.
		warmEnd, n := len(scripts), 0
		for i, s := range scripts {
			n += len(s.Reqs)
			if n >= w.warm && i < warmEnd {
				warmEnd = i + 1
			}
			if n >= need {
				scripts = scripts[:i+1]
				break
			}
		}
		if warmEnd > len(scripts) {
			warmEnd = len(scripts)
		}
		for _, part := range [][]trace.SessionScript{scripts[:warmEnd], scripts[warmEnd:]} {
			if len(part) > 0 {
				rotate(part, order.Intn(len(part)))
			}
		}
	}
	in := &inputs{
		files:    site.FileTable(),
		log:      log,
		logLines: len(train.Requests),
		eval:     eval,
		scripts:  scripts,
	}
	in.scheduled, in.digest = scheduleDigest(eval, scripts, need)
	return in, nil
}

// rotate turns part left by k places.
func rotate(part []trace.SessionScript, k int) {
	turned := append(append([]trace.SessionScript(nil), part[k:]...), part[:k]...)
	copy(part, turned)
}

// reslot hands the sessions' arrival times out again in a seeded order:
// every session keeps its own requests and the gaps between them, the
// trace keeps its arrival process, and only which session arrives when
// changes. The simulator replays by time stamp, so this is its
// counterpart of shuffling the live replay order.
func reslot(tr *trace.Trace, scripts []trace.SessionScript, order *randutil.Source) *trace.Trace {
	out := &trace.Trace{Name: tr.Name, Files: tr.Files, Requests: append([]trace.Request(nil), tr.Requests...)}
	for i, slot := range order.Perm(len(scripts)) {
		shift := scripts[slot].Start - scripts[i].Start
		for _, idx := range scripts[i].Reqs {
			out.Requests[idx].Time += shift
		}
	}
	out.SortByTime()
	return out
}

// accessLog writes tr as the Common Log Format log a server would have
// kept, every session under a host name of its own. The generator draws
// hosts from a small population, so one host carries several sessions at
// once; sessionizing such a log by host interleaves them, objects get
// attributed to other sessions' pages, and mining.Bundles then breaks
// equal-count parent ties in map order — two minings of one log make
// different simulators. With one host per session the log sessionizes
// back to the generated sessions, ties do not arise, and sim-paper's
// outputs are exact. (The tie-break itself is the program's to fix, in a
// later change.)
func accessLog(tr *trace.Trace) ([]byte, error) {
	epoch := time.Date(2006, 7, 1, 0, 0, 0, 0, time.UTC)
	var buf bytes.Buffer
	cw := clf.NewWriter(&buf)
	for i := range tr.Requests {
		r := &tr.Requests[i]
		if err := cw.Write(clf.Entry{
			Host:   fmt.Sprintf("s%d.%s", r.Session, r.Client),
			Time:   epoch.Add(r.Time),
			Method: "GET",
			Path:   r.Path,
			Proto:  "HTTP/1.1",
			Status: 200,
			Bytes:  r.Size,
		}); err != nil {
			return nil, err
		}
	}
	if err := cw.Flush(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// scheduleDigest fingerprints the offered work with FNV-64a over the
// session ids and request paths, in replay order, of as many sessions
// (wrapping around) as it takes to cover need requests. Equal seeds
// must print equal digests.
func scheduleDigest(eval *trace.Trace, scripts []trace.SessionScript, need int) (int, string) {
	h := fnv.New64a()
	var buf [8]byte
	n := 0
	for i := 0; n < need; i++ {
		s := scripts[i%len(scripts)]
		binary.LittleEndian.PutUint64(buf[:], uint64(s.ID))
		h.Write(buf[:])
		for _, idx := range s.Reqs {
			io.WriteString(h, eval.Requests[idx].Path)
		}
		n += len(s.Reqs)
	}
	return n, fmt.Sprintf("fnv64a:%016x", h.Sum64())
}
