package main

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Span names, one per layer boundary the benchmark can see from
// outside the program.
const (
	spanClient  = "client.request"
	spanFront   = "httpfront.serve"
	spanBackend = "backend.serve"
)

// span is one layer's share of one request. Spans of one request share
// Req; Parent is the span that caused this one (0 for the client's).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	// Start and End are nanoseconds since the tracer started.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	base time.Time
	next atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newTracer(capacity int) *tracer {
	return &tracer{base: time.Now(), spans: make([]span, 0, capacity)}
}

func (t *tracer) id() uint64 { return t.next.Add(1) }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// headerValue encodes the link a layer hands to the next one.
func headerValue(req int64, id uint64) string {
	return strconv.FormatInt(req, 10) + "." + strconv.FormatUint(id, 10)
}

func parseHeaderValue(v string) (req int64, id uint64, ok bool) {
	a, b, found := strings.Cut(v, ".")
	if !found {
		return 0, 0, false
	}
	req, err := strconv.ParseInt(a, 10, 64)
	if err != nil {
		return 0, 0, false
	}
	id, err = strconv.ParseUint(b, 10, 64)
	if err != nil {
		return 0, 0, false
	}
	return req, id, true
}

// wrap records a span around h for every request that carries a span
// header, and rewrites the header to name the new span so that whatever
// h calls next (the reverse proxy forwards request headers) links to
// it. Requests without the header — prefetch hints, probes — pass
// through unrecorded.
func (t *tracer) wrap(name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, parent, ok := parseHeaderValue(r.Header.Get(spanHeader))
		if !ok {
			h.ServeHTTP(w, r)
			return
		}
		id := t.id()
		r.Header.Set(spanHeader, headerValue(req, id))
		start := t.now()
		h.ServeHTTP(w, r)
		t.add(span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: t.now()})
	})
}

// write stores the spans as one JSON document under bench/out.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	t.mu.Lock()
	err = json.NewEncoder(f).Encode(t.spans)
	t.mu.Unlock()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// selfTime returns, for every span in order, its duration minus the
// part of its interval that its child spans cover (children clipped to
// the parent, overlapping children counted once).
func selfTime(spans []span) []float64 {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = float64(s.End - s.Start - covered(s, children[s.ID]))
	}
	return out
}

// selfTimes groups selfTime by span name.
func selfTimes(spans []span) map[string][]float64 {
	out := make(map[string][]float64)
	for i, self := range selfTime(spans) {
		out[spans[i].Name] = append(out[spans[i].Name], self)
	}
	return out
}

// requestCost is one request seen whole: what the client saw, and each
// layer's self time in it (a layer that ran twice, as on a retry, is
// summed).
type requestCost struct {
	seen float64
	self map[string]float64
}

// requestCosts regroups the spans by request, in ascending order of
// client-seen time. Requests without a client span are dropped.
func requestCosts(spans []span) []requestCost {
	byReq := make(map[int64]*requestCost)
	for i, self := range selfTime(spans) {
		s := spans[i]
		rc := byReq[s.Req]
		if rc == nil {
			rc = &requestCost{self: make(map[string]float64)}
			byReq[s.Req] = rc
		}
		rc.self[s.Name] += self
		if s.Name == spanClient {
			rc.seen = float64(s.End - s.Start)
		}
	}
	out := make([]requestCost, 0, len(byReq))
	for _, rc := range byReq {
		if rc.seen > 0 {
			out = append(out, *rc)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].seen < out[j].seen })
	return out
}

// medianRequest averages, layer by layer, the requests whose
// client-seen time lies between the 45th and the 55th percentile: the
// budget of a median request. Unlike the layers' own medians, its parts
// add up to its whole, also when hits and misses make two modes.
func medianRequest(sorted []requestCost) (seen float64, self map[string]float64) {
	self = make(map[string]float64)
	lo, hi := len(sorted)*45/100, len(sorted)*55/100
	if hi <= lo {
		return 0, self
	}
	for _, rc := range sorted[lo:hi] {
		seen += rc.seen
		for _, name := range []string{spanClient, spanFront, spanBackend} {
			self[name] += rc.self[name]
		}
	}
	n := float64(hi - lo)
	for name := range self {
		self[name] /= n
	}
	return seen / n, self
}

// covered is the length of the union of the kids' intervals inside p.
func covered(p span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	edge := p.Start
	for _, k := range kids {
		start, end := k.Start, k.End
		if start < edge {
			start = edge
		}
		if end > p.End {
			end = p.End
		}
		if end > start {
			total += end - start
			edge = end
		}
	}
	return total
}

// durations returns every span's duration, grouped by span name.
func durations(spans []span) map[string][]float64 {
	out := make(map[string][]float64)
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start))
	}
	return out
}
