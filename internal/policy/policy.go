// Package policy implements the request-distribution policies the paper
// compares: WRR, LARD (connection-granularity under persistent HTTP),
// Ext-LARD-PHTTP (per-request LARD via multiple TCP handoffs), LARD/R
// (replicated server sets), back-end forwarding (Aron et al. [5]) and
// PRORD's proactive front-end flow (Fig. 4).
//
// A policy only decides where a request goes and which overheads the
// decision incurs (dispatcher consultation, TCP handoff); executing the
// decision — queueing, caching, prefetching, replication — is the cluster
// model's job.
// All built-in policies are safe for concurrent Route calls: WRR
// serializes its rotor on a small mutex, and the LARD family keeps its
// file → target assignments in a striped leaf-locked table (stripe.go).
// A custom Policy or ConnCloser used with the dispatch core must be
// equally concurrency-safe, since the core no longer serializes Route.
package policy

import (
	"fmt"
	"sync"
)

// Request is the routing-relevant view of one incoming request.
type Request struct {
	// Conn is the persistent-connection id carrying the request.
	Conn int
	// Path identifies the requested file.
	Path string
	// Size is the response size in bytes.
	Size int64
	// Embedded reports whether the distributor classified this request as
	// an embedded object of the connection's previous main page.
	Embedded bool
	// First reports whether this is the connection's first request.
	First bool
}

// View is the cluster state a policy may consult when routing. A View
// is valid only for the duration of the single Route call it is passed
// to, and any slices it returns (ServersWith, PrefetchedAt) are valid
// only until the next call on the same View — callers reuse the
// backing buffers between calls. Policies must not retain a View or
// its slices past the Route call.
type View interface {
	// NumServers returns the number of backend servers.
	NumServers() int
	// Load returns backend i's current load (queued + active requests),
	// the load metric the LARD family balances on.
	Load(i int) int
	// ServersWith returns the dispatcher's server set for a file: the
	// backends believed to hold it in memory. Consulting it costs a
	// dispatch; policies must set Decision.Dispatch when they use it.
	ServersWith(file string) []int
	// PrefetchedAt returns the backends that proactively prefetched the
	// file. This map lives at the front-end (backends push placement
	// notifications), so consulting it is dispatch-free.
	PrefetchedAt(file string) []int
	// InFlight reports the backend already processing an outstanding
	// request for the file, if any.
	InFlight(file string) (server int, ok bool)
	// LastServer returns the backend that served the connection's
	// previous request, if any.
	LastServer(conn int) (int, bool)
}

// UnavailableLoad is the load a View reports for an excluded backend:
// large enough that every load comparison avoids it, with headroom so
// adding real queue depth cannot overflow.
const UnavailableLoad = int(^uint(0) >> 2)

// Decision is a routing outcome.
type Decision struct {
	// Server is the backend that serves the response to the client.
	Server int
	// Source, when >= 0, is the backend whose memory supplies the file
	// while Server delivers it (back-end forwarding over the cluster's
	// internal network). -1 means Server fetches locally.
	Source int
	// Dispatch reports that the dispatcher was consulted (Fig. 6 counts
	// these).
	Dispatch bool
	// Handoff reports that serving requires a TCP handoff because the
	// connection moves (or is first bound) to a backend.
	Handoff bool
}

// Policy routes requests to backends. Route must be safe for
// concurrent calls: the dispatch core's lock-free read path invokes it
// from many goroutines without serialization.
type Policy interface {
	// Name identifies the policy in tables ("WRR", "LARD", ...).
	Name() string
	// Route decides where req goes given the current cluster view.
	Route(req Request, view View) Decision
}

// ConnCloser is implemented by policies that keep per-connection
// state. ConnClose must be safe for concurrent use alongside Route.
type ConnCloser interface {
	ConnClose(conn int)
}

// LeastLoaded returns the index of the least-loaded backend (ties go to
// the lowest index, which keeps simulations deterministic).
func LeastLoaded(view View) int {
	best, bestLoad := 0, view.Load(0)
	for i := 1; i < view.NumServers(); i++ {
		if l := view.Load(i); l < bestLoad {
			best, bestLoad = i, l
		}
	}
	return best
}

// LeastLoadedOf returns the least-loaded backend among servers; it panics
// if servers is empty.
func LeastLoadedOf(view View, servers []int) int {
	if len(servers) == 0 {
		panic("policy: LeastLoadedOf with empty server list")
	}
	best, bestLoad := servers[0], view.Load(servers[0])
	for _, s := range servers[1:] {
		if l := view.Load(s); l < bestLoad {
			best, bestLoad = s, l
		}
	}
	return best
}

// Thresholds are the LARD load-balance thresholds (Pai et al. use
// Tlow=25, Thigh=65 outstanding requests).
type Thresholds struct {
	Low  int
	High int
}

// DefaultThresholds returns the LARD paper's values.
func DefaultThresholds() Thresholds { return Thresholds{Low: 25, High: 65} }

func (t Thresholds) orDefault() Thresholds {
	if t.Low <= 0 || t.High <= t.Low {
		return DefaultThresholds()
	}
	return t
}

// anyBelow reports whether some backend's load is below limit.
func anyBelow(view View, limit int) bool {
	for i := 0; i < view.NumServers(); i++ {
		if view.Load(i) < limit {
			return true
		}
	}
	return false
}

// WRR is weighted round-robin: connections are assigned to backends in
// proportion to their weights, content-blind. Good load balance, no
// locality (§2: "it does not affect the performance of the system").
type WRR struct {
	weights []int

	mu     sync.Mutex // leaf: guards the rotor below, nothing else
	cursor int
	credit int
}

// NewWRR builds a WRR policy for n backends with equal weights.
func NewWRR(n int) *WRR {
	w := make([]int, n)
	for i := range w {
		w[i] = 1
	}
	return NewWeightedWRR(w)
}

// NewWeightedWRR builds a WRR policy with explicit per-backend weights
// (non-positive weights are lifted to 1).
func NewWeightedWRR(weights []int) *WRR {
	if len(weights) == 0 {
		panic("policy: WRR needs at least one backend")
	}
	w := make([]int, len(weights))
	for i, x := range weights {
		if x < 1 {
			x = 1
		}
		w[i] = x
	}
	return &WRR{weights: w}
}

// Name implements Policy.
func (p *WRR) Name() string { return "WRR" }

// Route implements Policy: a connection is bound round-robin on its first
// request and stays put for its lifetime (one handoff per connection).
func (p *WRR) Route(req Request, view View) Decision {
	if s, ok := view.LastServer(req.Conn); ok {
		return Decision{Server: s, Source: -1}
	}
	p.mu.Lock()
	server := p.cursor
	p.credit++
	if p.credit >= p.weights[p.cursor] {
		p.credit = 0
		p.cursor = (p.cursor + 1) % len(p.weights)
	}
	p.mu.Unlock()
	return Decision{Server: server, Source: -1, Handoff: true}
}

// ConnLARD is locality-aware request distribution at connection
// granularity: the classic policy designed for HTTP/0.9-1.0 running
// naively under persistent connections (§2.1's problem statement). The
// first request on a connection is routed with the LARD target/rebalance
// rule; subsequent requests cannot move (no per-request handoff support),
// so they are served wherever the connection lives even when locality
// says otherwise. The distributor is still content-aware: it consults the
// dispatcher for every request (counted as dispatches), it just cannot
// act on the answer mid-connection.
type ConnLARD struct {
	T      Thresholds
	target *targetTable // LARD's one-server-per-target assignment
}

// NewConnLARD returns a connection-granularity LARD policy.
func NewConnLARD(t Thresholds) *ConnLARD {
	return &ConnLARD{T: t.orDefault(), target: newTargetTable()}
}

// Name implements Policy.
func (p *ConnLARD) Name() string { return "LARD-conn" }

// lardTarget applies the original LARD assignment rule for a file.
func lardTarget(assign *targetTable, path string, t Thresholds, view View) int {
	target, ok := assign.get(path)
	if !ok {
		target = LeastLoaded(view)
		assign.set(path, target)
		return target
	}
	if (view.Load(target) > t.High && anyBelow(view, t.Low)) ||
		view.Load(target) > 2*t.High {
		target = LeastLoaded(view)
		assign.set(path, target)
	}
	return target
}

// Route implements Policy.
func (p *ConnLARD) Route(req Request, view View) Decision {
	if s, ok := view.LastServer(req.Conn); ok {
		// Content-aware analysis happens (and costs a dispatch), but the
		// connection cannot migrate.
		return Decision{Server: s, Source: -1, Dispatch: true}
	}
	target := lardTarget(p.target, req.Path, p.T, view)
	return Decision{Server: target, Source: -1, Dispatch: true, Handoff: true}
}

// LARD is the paper's LARD baseline: classic locality-aware request
// distribution [2] applied to every request. The distributor consults
// the dispatcher for "the locality of the requested files" (§1) and
// forwards to the least-loaded backend holding the file in memory,
// falling back to the LARD assignment rule for cold files. Under
// persistent HTTP this is the multiple TCP handoff mechanism — the
// connection is handed off whenever the target differs from the backend
// currently holding it. Near-ideal locality, at the price of per-request
// dispatches and frequent handoffs.
type LARD struct {
	T      Thresholds
	target *targetTable
}

// NewLARD returns a per-request LARD policy.
func NewLARD(t Thresholds) *LARD {
	return &LARD{T: t.orDefault(), target: newTargetTable()}
}

// Name implements Policy.
func (p *LARD) Name() string { return "LARD" }

// localityTarget routes to the least-loaded in-memory holder of the file
// with LARD's overload escape, or falls back to the LARD assignment rule
// when no backend has the file cached. Shared by LARD and PRORD's
// dispatcher step.
func localityTarget(assign *targetTable, req Request, t Thresholds, view View) int {
	if holders := view.ServersWith(req.Path); len(holders) > 0 {
		target := LeastLoadedOf(view, holders)
		if (view.Load(target) > t.High && anyBelow(view, t.Low)) ||
			view.Load(target) > 2*t.High {
			target = LeastLoaded(view)
		}
		assign.set(req.Path, target)
		return target
	}
	return lardTarget(assign, req.Path, t, view)
}

// Route implements Policy.
func (p *LARD) Route(req Request, view View) Decision {
	target := localityTarget(p.target, req, p.T, view)
	last, ok := view.LastServer(req.Conn)
	return Decision{
		Server:   target,
		Source:   -1,
		Dispatch: true,
		Handoff:  !ok || last != target,
	}
}

// LARDR is LARD/R, the replicated variant of per-request LARD: each
// target may be served by a set of backends. Under high load the set
// grows by the least-loaded backend; the request goes to the least-loaded
// member of the set.
type LARDR struct {
	T       Thresholds
	targets *targetTable
}

// NewLARDR returns a per-request LARD/R policy.
func NewLARDR(t Thresholds) *LARDR {
	return &LARDR{T: t.orDefault(), targets: newTargetSetTable()}
}

// Name implements Policy.
func (p *LARDR) Name() string { return "LARD/R" }

// Route implements Policy. Replica sets are copy-on-append, so the
// set read here stays immutable while the view consults it.
func (p *LARDR) Route(req Request, view View) Decision {
	set := p.targets.getSet(req.Path)
	var target int
	switch {
	case len(set) == 0:
		target = LeastLoaded(view)
		p.targets.initSet(req.Path, target)
	default:
		target = LeastLoadedOf(view, set)
		if (view.Load(target) > p.T.High && anyBelow(view, p.T.Low)) ||
			view.Load(target) > 2*p.T.High {
			ll := LeastLoaded(view)
			if !containsInt(set, ll) {
				p.targets.addToSet(req.Path, set, ll)
			}
			target = ll
		}
	}
	last, ok := view.LastServer(req.Conn)
	return Decision{
		Server:   target,
		Source:   -1,
		Dispatch: true,
		Handoff:  !ok || last != target,
	}
}

// ExtLARD is "Ext-LARD-PHTTP", the existing algorithm for P-HTTP the
// paper benchmarks (§5.1): LARD extended with back-end request forwarding
// [5]. One handoff binds the connection (LARD rule on the first request);
// afterwards, when locality points elsewhere, the response content is
// pulled from the remote backend's memory over the cluster's internal
// network instead of moving the connection.
type ExtLARD struct {
	T      Thresholds
	target *targetTable
}

// NewExtLARD returns an Ext-LARD-PHTTP (back-end forwarding) policy.
func NewExtLARD(t Thresholds) *ExtLARD {
	return &ExtLARD{T: t.orDefault(), target: newTargetTable()}
}

// Name implements Policy.
func (p *ExtLARD) Name() string { return "Ext-LARD-PHTTP" }

// Route implements Policy.
func (p *ExtLARD) Route(req Request, view View) Decision {
	last, ok := view.LastServer(req.Conn)
	if !ok {
		target := lardTarget(p.target, req.Path, p.T, view)
		return Decision{Server: target, Source: -1, Dispatch: true, Handoff: true}
	}
	// Connection pinned to last; find where the content lives.
	d := Decision{Server: last, Source: -1, Dispatch: true}
	if holders := view.ServersWith(req.Path); len(holders) > 0 && !containsInt(holders, last) {
		d.Source = LeastLoadedOf(view, holders)
	}
	return d
}

func containsInt(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// PRORD implements the proactive request-distribution flow of Fig. 4:
//
//  1. If the request is an embedded object of the connection's previous
//     request, forward it to the backend that processed that request —
//     no dispatcher contact (the "forward module" inside the dashed box).
//  2. If the file was prefetched somewhere or an identical request is
//     already being processed, forward to that backend — still no
//     dispatcher contact.
//  3. Otherwise consult the dispatcher and pick the least-loaded backend
//     holding the file in memory (with LARD-style overload protection),
//     falling back to the least-loaded backend overall.
type PRORD struct {
	T      Thresholds
	target *targetTable
}

// NewPRORD returns the PRORD routing policy.
func NewPRORD(t Thresholds) *PRORD {
	return &PRORD{T: t.orDefault(), target: newTargetTable()}
}

// Name implements Policy.
func (p *PRORD) Name() string { return "PRORD" }

// Route implements Policy.
func (p *PRORD) Route(req Request, view View) Decision {
	last, haveLast := view.LastServer(req.Conn)

	// Step 1: embedded-object fast path.
	if req.Embedded && haveLast {
		return Decision{Server: last, Source: -1}
	}
	// Step 2: prefetched or in-flight.
	if s, ok := view.InFlight(req.Path); ok {
		return Decision{Server: s, Source: -1, Handoff: !haveLast || last != s}
	}
	if pre := view.PrefetchedAt(req.Path); len(pre) > 0 {
		s := LeastLoadedOf(view, pre)
		return Decision{Server: s, Source: -1, Handoff: !haveLast || last != s}
	}
	// Step 3: dispatcher consultation — the same locality rule as LARD.
	target := localityTarget(p.target, req, p.T, view)
	return Decision{
		Server:   target,
		Source:   -1,
		Dispatch: true,
		Handoff:  !haveLast || last != target,
	}
}

// ByName constructs a fresh policy by its table name. n is the backend
// count (needed by WRR). Unknown names return an error.
func ByName(name string, n int, t Thresholds) (Policy, error) {
	switch name {
	case "WRR":
		return NewWRR(n), nil
	case "LARD":
		return NewLARD(t), nil
	case "LARD-conn":
		return NewConnLARD(t), nil
	case "Ext-LARD-PHTTP":
		return NewExtLARD(t), nil
	case "LARD/R":
		return NewLARDR(t), nil
	case "PRORD":
		return NewPRORD(t), nil
	default:
		return nil, fmt.Errorf("policy: unknown policy %q", name)
	}
}

// Names lists the available policy names in the order tables report them.
func Names() []string {
	return []string{"WRR", "LARD-conn", "LARD", "LARD/R", "Ext-LARD-PHTTP", "PRORD"}
}

var (
	_ Policy = (*WRR)(nil)
	_ Policy = (*ConnLARD)(nil)
	_ Policy = (*LARD)(nil)
	_ Policy = (*ExtLARD)(nil)
	_ Policy = (*LARDR)(nil)
	_ Policy = (*PRORD)(nil)
)
