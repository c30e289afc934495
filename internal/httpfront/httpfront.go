// Package httpfront is a working HTTP/1.1 front-end distributor driven
// by the shared PRORD decision core (internal/dispatch): it forwards
// each request to one of a set of backend servers using WRR, LARD or
// PRORD semantics, classifies embedded objects against mined bundles,
// and issues prefetch hints to backends for predicted next pages. The
// core makes every routing decision — the same code the discrete-event
// simulator runs, and so does each request's failover and hedging
// policy — while this package owns the live transport: the forwarder
// and its backend client, circuit breakers, health probes, the hedge
// race, the per-request deadline, the prefetch-hint channel and the
// wall clock.
//
// Forwarding is one round trip of the package's own HTTP/1.1 client per
// attempt: one write and one read on the request's goroutine over a
// pooled persistent connection (client.go, head.go), with the verdict
// taken on the response head — a failed retryable attempt is dropped,
// and a hedged pair refereed, before anything reaches the client
// (forward.go). Upgrades (101) and 1xx are not forwarded.
//
// TCP handoff needs kernel support the paper assumes; the user-space
// equivalent is forwarding through the front-end, which this package
// does. The dispatcher's locality knowledge is approximated at the
// front-end: the core runs in optimistic mode, assuming a backend holds
// a file after being routed (or asked to prefetch) it recently.
package httpfront

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"prord/internal/dispatch"
	"prord/internal/health"
	"prord/internal/mining"
	"prord/internal/overload"
	"prord/internal/policy"
	"prord/internal/randutil"
	"prord/internal/trace"
)

// PrefetchHeader marks a front-end-initiated prefetch request; backends
// should warm their caches and reply without a body when they see it.
const PrefetchHeader = "X-Prord-Prefetch"

// BackendHeader reports which backend served a proxied response.
const BackendHeader = "X-Prord-Backend"

// ProbeHeader marks a front-end health probe; backends should answer
// cheaply and without side effects when they see it.
const ProbeHeader = "X-Prord-Probe"

// ShedHeader marks a 503 as Critical-tier admission control shedding
// the request (as opposed to a genuine failure): the client should back
// off per Retry-After and retry, nothing is wrong with its request.
const ShedHeader = "X-Prord-Shed"

// probePath is the path health probes request.
const probePath = "/"

// prefetchTimeout bounds one prefetch-hint round trip.
const prefetchTimeout = 5 * time.Second

// Config assembles a Distributor.
type Config struct {
	// Backends are the backend servers' http:// base URLs. At least one.
	Backends []*url.URL
	// Policy routes requests; nil defaults to PRORD.
	Policy policy.Policy
	// Miner supplies bundles and the navigation model; optional. Without
	// it, embedded-object classification falls back to path extensions
	// and prefetching is disabled.
	Miner *mining.Miner
	// Prefetch enables navigation prefetch hints to backends. Needs Miner.
	Prefetch bool
	// LocalityEntries bounds the per-backend locality map (how many
	// recently-served files the dispatcher remembers per backend).
	// Default 4096.
	LocalityEntries int64
	// MaxSessions bounds tracked client sessions. Default 65536.
	MaxSessions int
	// Observe, when non-nil, is called once per proxied demand request
	// after the response completes, with the routing outcome and the
	// front-end's service time for the request. It runs on the request
	// goroutine and so must be fast and safe for concurrent use.
	// Prefetch hints never trigger it: they are not client-visible.
	Observe func(Observation)
	// Health tunes the per-backend circuit breakers. The zero value
	// selects the health package defaults.
	Health health.Config
	// Retries is the core's per-request failover budget
	// (dispatch.Config.Retries): after a transport error or 5xx, the
	// request is re-proxied to a different healthy backend at most this
	// many times. 0 means the default of 1; negative disables retries.
	// Only idempotent requests (GET, HEAD) are ever retried.
	Retries int
	// Deadline is the per-request deadline budget at Normal and Elevated
	// tiers; it halves at Saturated and quarters at Critical, spending
	// less of the cluster on any one request exactly when capacity is
	// scarce. One budget covers the whole request — every failover
	// attempt and any hedged backup. 0 disables deadlines.
	Deadline time.Duration
	// ProbeInterval enables active health probes of unhealthy backends
	// on a seeded-jittered interval. 0 disables probing; breakers then
	// recover through half-open trial requests alone.
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe round-trip. Default 1s.
	ProbeTimeout time.Duration
	// ProbeSeed seeds the probe-interval jitter. Default 1.
	ProbeSeed int64
	// Overload enables the overload-control layer: a load estimator
	// classifying the cluster into degrade-ladder tiers, tiered shedding
	// of PRORD's proactive work, and Critical-tier admission control.
	// Nil disables the layer entirely (no behavior change).
	Overload *overload.Config
	// Recorder, when non-nil, receives every decision the dispatch core
	// makes, in decision order (differential testing against the
	// simulator).
	Recorder func(dispatch.Record)
	// Gray enables the core's gray-failure layer (dispatch.Config.Gray):
	// the latency outlier detector ejecting slow backends from
	// new-session routing (with progressive rebinding of bound
	// sessions), and hedged backup requests for idempotent static
	// content. Nil disables the layer entirely (no behavior change).
	Gray *GrayConfig
}

// Observation is one completed demand request as seen by the front-end:
// the input to Config.Observe, and the raw material for benchmark
// measurements.
type Observation struct {
	// Backend is the backend index that served the request.
	Backend int
	// Path is the requested URL path.
	Path string
	// Status is the response status code delivered to the client; 0
	// when the client hung up before any response was written.
	Status int
	// Latency is the front-end's service time: routing decision plus
	// proxied backend round-trip (excludes client network time).
	Latency time.Duration
}

// Stats are the distributor's live counters, named like the
// simulator's metrics because most are read straight off the shared
// dispatch core; the prefetch-hint counters are adapter-side.
type Stats struct {
	Requests       int64 `json:"requests"`
	Dispatches     int64 `json:"dispatches"`
	DirectForwards int64 `json:"direct_forwards"`
	Handoffs       int64 `json:"handoffs"`
	Prefetches     int64 `json:"prefetches"`
	// Errors counts failed proxied attempts (5xx or transport error),
	// including ones later masked by a successful failover retry, plus
	// failed prefetch hints.
	Errors int64 `json:"errors"`
	// Failovers counts requests that completed on a different backend
	// than their first attempt after that attempt failed.
	Failovers int64 `json:"failovers"`
	// Retries counts re-proxied attempts made by the failover path.
	Retries int64 `json:"retries"`
	// Shed counts demand requests refused by Critical-tier admission
	// control (503 + Retry-After + ShedHeader, never proxied). Shed
	// requests are included in Requests but not in PerBackend.
	Shed int64 `json:"shed"`
	// PrefetchShed counts proactive prefetch passes suppressed because
	// the cluster sat at Elevated tier or above (the hints were never
	// generated).
	PrefetchShed int64 `json:"prefetch_shed"`
	// PrefetchHintsDropped counts generated hints lost to a full
	// prefetch queue — the previously silent default-case drop in the
	// enqueue path.
	PrefetchHintsDropped int64 `json:"prefetch_hints_dropped"`
	// Unavailable counts demand requests refused with 503 because every
	// backend's breaker was open (no ShedHeader: the cluster is dead,
	// not overloaded). Included in Requests but not in PerBackend.
	Unavailable int64 `json:"unavailable"`
	// PerBackend counts demand requests routed to each backend
	// (including failover retries), in backend order. Prefetch hints
	// are not included.
	PerBackend []int64 `json:"per_backend"`
}

// BackendHealth is one backend's health snapshot as exposed on the
// cluster stats endpoint.
type BackendHealth struct {
	Backend             int    `json:"backend"`
	State               string `json:"state"`
	ConsecutiveFailures int    `json:"consecutive_failures"`
	Successes           int64  `json:"successes"`
	Failures            int64  `json:"failures"`
	Trips               int64  `json:"trips"`
	Probes              int64  `json:"probes"`
}

// Distributor is the front-end: an http.Handler that proxies each request
// to a backend chosen by the shared dispatch core. It is the optimistic-
// locality adapter: the core tracks residency in bounded per-backend LRU
// maps, and breaker state feeds the core's availability view.
type Distributor struct {
	cfg  Config
	core *dispatch.Core
	// backends carry every backend-bound request: demand, hint, probe.
	backends []*backend
	// backendIDs are the BackendHeader values, shared read-only by responses.
	backendIDs [][]string
	prefetch   chan prefetchJob

	// hmu guards the health substrate (breakers, probe counts) and the
	// adapter-side prefetch counters. It is a leaf lock: the core may
	// call the Available hook (which takes hmu) while holding its own
	// locks, so nothing under hmu may call back into the core.
	hmu           sync.Mutex
	breakers      []*health.Breaker // per-backend circuit breakers
	probes        []int64           // per-backend probe counts
	hintsDropped  int64
	prefetchFails int64
	probeStop     chan struct{}
	grayStop      chan struct{}
}

type prefetchJob struct {
	server int
	path   string
}

// New builds a Distributor.
func New(cfg Config) (*Distributor, error) {
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("httpfront: at least one backend required")
	}
	if cfg.Policy == nil {
		cfg.Policy = policy.NewPRORD(policy.Thresholds{})
	}
	if cfg.Prefetch && cfg.Miner == nil {
		return nil, fmt.Errorf("httpfront: Prefetch requires a Miner")
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = time.Second
	}
	if cfg.ProbeSeed == 0 {
		cfg.ProbeSeed = 1
	}
	d := &Distributor{
		cfg:    cfg,
		probes: make([]int64, len(cfg.Backends)),
	}
	for i, u := range cfg.Backends {
		b, err := newBackend(u)
		if err != nil {
			return nil, err
		}
		d.backends = append(d.backends, b)
		d.backendIDs = append(d.backendIDs, []string{strconv.Itoa(i)})
		d.breakers = append(d.breakers, health.NewBreaker(cfg.Health))
	}
	dcfg := dispatch.Config{
		Backends: len(cfg.Backends),
		Policy:   cfg.Policy,
		Miner:    cfg.Miner,
		Features: dispatch.Features{
			// Bundle classification only needs mined bundles; prefetch
			// planning additionally needs the Prefetch switch (checked at
			// PlanProactive call sites).
			Bundle:        cfg.Miner != nil,
			NavPrefetch:   cfg.Prefetch,
			GroupPrefetch: cfg.Prefetch && cfg.Miner != nil && cfg.Miner.Categorizer != nil,
		},
		Exact:           false,
		LocalityEntries: cfg.LocalityEntries,
		MaxSessions:     cfg.MaxSessions,
		Available: func(server int, now time.Time) bool {
			d.hmu.Lock()
			defer d.hmu.Unlock()
			return d.breakers[server].Ready(now)
		},
		Overload: cfg.Overload,
		Gray:     cfg.Gray,
		Retries:  cfg.Retries,
		Recorder: cfg.Recorder,
	}
	core, err := dispatch.New(dcfg)
	if err != nil {
		return nil, fmt.Errorf("httpfront: %w", err)
	}
	d.core = core
	if cfg.Miner != nil && cfg.Prefetch {
		d.prefetch = make(chan prefetchJob, 256)
		go d.prefetchLoop(d.prefetch)
	}
	if cfg.ProbeInterval > 0 {
		d.probeStop = make(chan struct{})
		go health.Probe(cfg.ProbeInterval, randutil.New(cfg.ProbeSeed), d.probeStop, d.probeOnce)
	}
	if every := core.TickInterval(); every > 0 {
		d.grayStop = make(chan struct{})
		go d.grayTickLoop(d.grayStop, every)
	}
	return d, nil
}

// Core exposes the shared dispatch core (tests and diagnostics).
func (d *Distributor) Core() *dispatch.Core { return d.core }

// admitSlot is the grant channel of one admission, pooled so that the
// admitted path allocates nothing.
type admitSlot struct {
	// granted is 1-buffered: the grant runs on the goroutine of whichever
	// request frees the slot and must never block it.
	granted chan struct{}
	grant   func()
}

var admitSlots = sync.Pool{New: func() any {
	s := &admitSlot{granted: make(chan struct{}, 1)}
	s.grant = func() { s.granted <- struct{}{} }
	return s
}}

// admit runs the core's admission control for one demand request,
// waiting in the bounded accept queue up to QueueTimeout when the
// Critical-tier gate is full. False means the request was shed (counted,
// never proxied).
func (d *Distributor) admit(key, path string) bool {
	s := admitSlots.Get().(*admitSlot)
	defer admitSlots.Put(s)
	verdict, w := d.core.Admit(key, path, time.Now(), s.grant)
	if verdict != dispatch.Queued {
		return verdict != dispatch.Shed
	}
	t := time.NewTimer(d.core.QueueTimeout())
	defer t.Stop()
	select {
	case <-s.granted:
		return true
	case <-t.C:
	}
	if d.core.AbandonWait(w, path, time.Now()) {
		return false
	}
	// The slot was granted while the timer fired: the abandon failed and
	// we own the slot. Its grant is running; take it so s goes back clean.
	<-s.granted
	return true
}

// reject answers a demand request the front-end refuses to proxy. shed
// marks Critical-tier admission control (the response carries
// ShedHeader so clients can tell it from a failure); without it the
// refusal is the all-breakers-open fast 503.
func (d *Distributor) reject(w http.ResponseWriter, shed bool) {
	w.Header().Set("Retry-After", strconv.Itoa(d.core.RetryAfter()))
	msg := "no healthy backend available"
	if shed {
		w.Header().Set(ShedHeader, "1")
		msg = "overloaded, request shed"
	}
	http.Error(w, msg, http.StatusServiceUnavailable)
}

// beginAttempt opens one proxied attempt on a backend's breaker.
func (d *Distributor) beginAttempt(server int) {
	d.hmu.Lock()
	d.breakers[server].Begin(time.Now())
	d.hmu.Unlock()
}

// endAttempt feeds one proxied attempt's outcome to the backend's
// breaker; a trip invalidates the core's knowledge of the backend
// (locality, prefetch marks, session pins, detector window) — the same
// InvalidateBackend the simulator's crash handling calls, since sticky
// locality would otherwise keep steering sessions at the corpse.
func (d *Distributor) endAttempt(server int, failed bool) {
	now := time.Now()
	d.hmu.Lock()
	tripped := false
	if failed {
		tripped = d.breakers[server].OnFailure(now)
	} else {
		d.breakers[server].OnSuccess(now)
	}
	d.hmu.Unlock()
	if tripped {
		d.core.InvalidateBackend(server)
	}
}

// enqueuePrefetch hands a proactive plan to the background prefetcher.
// The channel is read under the lock so a concurrent Close can never
// race the send.
func (d *Distributor) enqueuePrefetch(plan dispatch.Plan) {
	files := plan.Files()
	if len(files) == 0 {
		return
	}
	d.hmu.Lock()
	defer d.hmu.Unlock()
	if d.prefetch == nil {
		return
	}
	for _, file := range files {
		select {
		case d.prefetch <- prefetchJob{server: plan.Server, path: file}:
		default:
			// The prefetch queue is best-effort; drop under pressure, but
			// visibly — a saturated hint queue is an overload signal.
			d.hintsDropped++
		}
	}
}

// ServeHTTP implements http.Handler. Each attempt is one round trip and
// its verdict is taken on the response head: a failed attempt (backend
// 5xx or transport error) on an idempotent request is held back while
// the core's Failover decides, within the retry budget, whether and
// where it is retried; the client only sees a failure when no retry was
// left (it then gets the last backend's own answer), or when a backend
// dies mid-body (the client sees the cut).
// With overload control enabled the request first passes Critical-tier
// admission; with every breaker open it is refused immediately.
func (d *Distributor) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	// The prefetch and probe marks are the front-end's own, sent
	// straight to backends; on a request from outside they would reach
	// the backend through the proxy and turn a demand request into a
	// cache-warming 204.
	r.Header.Del(PrefetchHeader)
	r.Header.Del(ProbeHeader)
	start := time.Now()
	// RemoteAddr is stable per keep-alive connection, making it the
	// session key.
	key, path := r.RemoteAddr, r.URL.Path
	if !d.admit(key, path) {
		d.reject(w, true)
		return
	}
	// client is canceled when the client hangs up; ctx adds the deadline
	// budget, whose expiry (DeadlineExceeded) is the backend's failure.
	client := r.Context()
	ctx := client
	if budget := d.deadlineBudget(); budget > 0 {
		// One tier-derived deadline budget covers the whole request —
		// every failover attempt and any hedged backup.
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(client, budget)
		defer cancel()
	}
	out := d.core.Route(key, path, 0, time.Now())
	if !out.OK {
		// Every breaker is open: refuse fast instead of retrying into a
		// dead cluster. Breakers re-admit trial traffic once their
		// backoff expires, so this state clears itself.
		d.core.GateLeave()
		d.reject(w, false)
		return
	}
	// The inbound header map becomes the outbound one once per request:
	// every attempt and hedge leg then shares it read-only, and
	// conn.write adds X-Forwarded-For on the wire.
	stripHopByHop(r.Header)
	server := out.Server
	d.beginAttempt(server)
	idempotent := r.Method == http.MethodGet || r.Method == http.MethodHead
	var (
		winner int  // the backend whose answer the client got
		status int  // what the client got; 0 after a hang-up
		cut    bool // the backend died mid-body, after the head was committed
	)
	for attempt := 0; ; attempt++ {
		winner = server
		attemptStart := time.Now()
		var (
			resp *response
			err  error
			won  *hedge // a backup that delivered in this attempt's place
		)
		delay := time.Duration(0)
		if attempt == 0 && idempotent && r.ContentLength == 0 {
			delay = d.core.HedgeDelay(path)
		}
		if delay > 0 {
			var release context.CancelFunc
			resp, won, release, err = d.hedged(ctx, r, path, server, delay)
			// The winning leg's context must outlive the body copy.
			defer release()
		} else {
			resp, err = d.roundTrip(ctx, server, r)
		}
		if err != nil && client.Err() != nil {
			// The client hung up: no verdict on the backend — its breaker
			// streak and latency window are untouched — and nobody to
			// retry for or write to. Only the bookings are released.
			status = 0
			d.core.Done(key, server, path, false, false)
			d.hmu.Lock()
			d.breakers[server].OnAbandon(time.Now())
			d.hmu.Unlock()
			break
		}
		status = http.StatusBadGateway // a transport error
		if resp != nil {
			status = resp.status
		}
		failed := status >= http.StatusInternalServerError
		if won != nil {
			failed, winner = won.primaryFailed, won.target
		}
		// A failed attempt is held back, body unread, while the core
		// decides on a retry; a retried attempt is settled here, any other
		// after its answer reaches the client.
		if failed && won == nil && idempotent {
			if next, ok := d.core.Failover(key, path, server, attempt, time.Now()); ok {
				d.endAttempt(server, true)
				if resp != nil {
					resp.Close()
				}
				server = next
				d.beginAttempt(server)
				continue
			}
		}
		if resp == nil {
			d.writeBare(w, winner, status)
		} else {
			readErr := d.deliver(w, winner, &resp.head, resp)
			resp.Close()
			if readErr != nil && client.Err() == nil {
				cut = true
				failed = failed || won == nil
			}
		}
		if won != nil {
			d.finishHedge(won, path, cut, true)
		}
		d.core.Done(key, server, path, failed, attempt > 0)
		d.endAttempt(server, failed)
		if !failed {
			// Canceled hedge losers record their elapsed-until-cancel
			// time — a lower bound on the true latency, and exactly the
			// evidence that made the hedge fire — so a slow backend
			// whose every request gets rescued still accumulates
			// adverse samples.
			d.core.ObserveLatency(server, time.Since(attemptStart), time.Now())
		}
		break
	}
	latency := time.Since(start)
	d.core.FinishRequest(time.Now(), latency)
	// PRORD's proactive pass (bundle, navigation, category prefetch over
	// HTTP hints) runs after the page is served, like the simulator's
	// backend-side prefetching.
	if d.prefetch != nil && !trace.IsEmbeddedPath(path) {
		if plan, ok := d.core.PlanProactive(key, winner, path, time.Now()); ok {
			d.enqueuePrefetch(plan)
		}
	}
	if d.cfg.Observe != nil {
		d.cfg.Observe(Observation{
			Backend: winner,
			Path:    path,
			Status:  status,
			Latency: latency,
		})
	}
	if cut {
		// Every booking is released; now let the client see the cut
		// instead of a cleanly terminated, truncated body.
		panic(http.ErrAbortHandler)
	}
}

// prefetchLoop sends prefetch hints to backends in the background. The
// channel is passed in rather than read off the struct so the loop
// never touches the field Close nils out under the lock.
func (d *Distributor) prefetchLoop(jobs <-chan prefetchJob) {
	for job := range jobs {
		if d.backendBlocked(job.server) {
			// Speculative work is shed first under degradation: no
			// hints to backends with tripped breakers.
			continue
		}
		// The timeout keeps one hung backend from stalling the single
		// prefetch goroutine — and with it all prefetching — forever;
		// an expired hint is simply dropped.
		if _, err := d.ownGet(job.server, job.path, PrefetchHeader, prefetchTimeout); err != nil {
			d.hmu.Lock()
			d.prefetchFails++
			d.hmu.Unlock()
		}
	}
}

// backendBlocked reports whether a backend's breaker is not closed.
func (d *Distributor) backendBlocked(server int) bool {
	d.hmu.Lock()
	defer d.hmu.Unlock()
	return d.breakers[server].State() != health.Closed
}

// probeOnce checks every unhealthy backend once and feeds the results to
// the breakers. Healthy (closed) backends are never probed: demand
// traffic already exercises them, and the fault-free path stays
// byte-for-byte identical with probing on or off.
func (d *Distributor) probeOnce() {
	d.hmu.Lock()
	var targets []int
	for i, b := range d.breakers {
		if b.State() != health.Closed {
			targets = append(targets, i)
		}
	}
	d.hmu.Unlock()
	for _, i := range targets {
		ok := d.probeBackend(i)
		d.hmu.Lock()
		d.probes[i]++
		if ok {
			d.breakers[i].OnSuccess(time.Now())
		} else {
			d.breakers[i].OnFailure(time.Now())
		}
		d.hmu.Unlock()
	}
}

// probeBackend issues one health probe and reports reachability.
func (d *Distributor) probeBackend(i int) bool {
	status, err := d.ownGet(i, probePath, ProbeHeader, d.cfg.ProbeTimeout)
	return err == nil && status < http.StatusInternalServerError
}

// ownGet sends one of the front-end's own requests — a prefetch hint or
// a probe, as mark says — to a backend through roundTrip, reads the
// answer to its end within timeout and returns its status.
func (d *Distributor) ownGet(server int, path, mark string, timeout time.Duration) (int, error) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	r := &http.Request{
		Method: http.MethodGet,
		URL:    &url.URL{Path: path},
		Header: http.Header{mark: {"1"}},
	}
	resp, err := d.roundTrip(ctx, server, r)
	if err != nil {
		return 0, err
	}
	defer resp.Close()
	_, err = io.Copy(io.Discard, resp)
	return resp.status, err
}

// Stats returns a snapshot of the live counters, read off the dispatch
// core plus the adapter's prefetch-hint counters.
func (d *Distributor) Stats() Stats {
	cs := d.core.Stats()
	d.hmu.Lock()
	dropped, pfails := d.hintsDropped, d.prefetchFails
	d.hmu.Unlock()
	return Stats{
		Requests:       cs.Requests,
		Dispatches:     cs.Dispatches,
		DirectForwards: cs.DirectForwards,
		// The live handoff metric counts genuine server switches of
		// bound connections, not first bindings.
		Handoffs:             cs.Switches,
		Prefetches:           cs.Prefetches,
		Errors:               cs.Errors + pfails,
		Failovers:            cs.Failovers,
		Retries:              cs.Retries,
		Shed:                 cs.Shed,
		PrefetchShed:         cs.PrefetchShed,
		PrefetchHintsDropped: dropped,
		Unavailable:          cs.Unroutable,
		PerBackend:           cs.PerBackend,
	}
}

// Overload returns the overload layer's snapshot, or nil when the layer
// is disabled.
func (d *Distributor) Overload() *dispatch.OverloadSnapshot { return d.core.Overload() }

// Health returns per-backend breaker snapshots in backend order.
func (d *Distributor) Health() []BackendHealth {
	d.hmu.Lock()
	defer d.hmu.Unlock()
	out := make([]BackendHealth, len(d.breakers))
	for i, b := range d.breakers {
		s := b.Snapshot()
		out[i] = BackendHealth{
			Backend:             i,
			State:               s.State.String(),
			ConsecutiveFailures: s.ConsecutiveFailures,
			Successes:           s.Successes,
			Failures:            s.Failures,
			Trips:               s.Trips,
			Probes:              d.probes[i],
		}
	}
	return out
}

// Close stops the background prefetcher and the health prober and
// closes the idle backend connections. Safe to call concurrently with
// in-flight requests: senders check the channel under the lock, so the
// close cannot race an enqueue.
func (d *Distributor) Close() {
	d.hmu.Lock()
	ch := d.prefetch
	d.prefetch = nil
	stop := d.probeStop
	d.probeStop = nil
	gray := d.grayStop
	d.grayStop = nil
	d.hmu.Unlock()
	if ch != nil {
		close(ch)
	}
	if stop != nil {
		close(stop)
	}
	if gray != nil {
		close(gray)
	}
	for _, b := range d.backends {
		b.close()
	}
}
