package overload

// Waiter is one request parked in the Gate's accept queue. It carries
// the grant callback the owner supplied at Enter time; the Gate hands
// the callback back from Leave so the owner can run it outside its own
// mutex (the live front-end closes a channel, the simulator resumes the
// request at the current virtual time).
type Waiter struct {
	grant func()
}

// Gate is the Critical-tier admission control: a bounded in-flight
// count plus a small bounded FIFO accept queue. It is clockless — the
// caller owns queue-wait timeouts — and, like the estimator, not
// goroutine-safe: the owner serializes every method behind its own
// mutex. Queue grants are delivered through the callback registered at
// Enter time, returned by Leave for the owner to invoke after releasing
// that mutex.
type Gate struct {
	limit      int
	queueLimit int
	inflight   int
	queue      []*Waiter
}

// NewGate builds a gate admitting up to limit concurrent requests with
// up to queueLimit more waiting.
func NewGate(limit, queueLimit int) *Gate {
	if limit < 1 {
		limit = 1
	}
	if queueLimit < 0 {
		queueLimit = 0
	}
	return &Gate{limit: limit, queueLimit: queueLimit}
}

// Enter asks to admit one request. With enforce false (tiers below
// Critical, or a bypassed embedded-object request) the request is
// always admitted and only counted. With enforce true the request is
// admitted while under the in-flight limit, queued while the accept
// queue has room — grant runs when a slot frees, via the callback Leave
// returns to its caller — and otherwise refused (nil, false). Every
// admitted or granted request must be paired with exactly one Leave.
func (g *Gate) Enter(enforce bool, grant func()) (wait *Waiter, ok bool) {
	if !enforce || g.inflight < g.limit {
		g.inflight++
		return nil, true
	}
	if len(g.queue) < g.queueLimit {
		w := &Waiter{grant: grant}
		g.queue = append(g.queue, w)
		return w, true
	}
	return nil, false
}

// Leave releases one admitted request's slot. If the queue is
// non-empty the slot passes straight to its head (the in-flight count
// is unchanged) and the head's grant callback is returned for the owner
// to run outside its mutex; otherwise the count drops and Leave returns
// nil. While unenforced admissions hold the in-flight count over the
// limit, slots are reclaimed — not handed on — until it is back under.
func (g *Gate) Leave() (grant func()) {
	if g.inflight <= g.limit && len(g.queue) > 0 {
		w := g.queue[0]
		g.queue = g.queue[1:]
		return w.grant
	}
	if g.inflight > 0 {
		g.inflight--
	}
	return nil
}

// Abandon withdraws a queued request after its wait timed out. It
// reports whether the request was still queued: false means the slot
// was already granted — the caller owns it and must Leave as usual.
func (g *Gate) Abandon(wait *Waiter) bool {
	for i, w := range g.queue {
		if w == wait {
			g.queue = append(g.queue[:i], g.queue[i+1:]...)
			return true
		}
	}
	return false
}

// InFlight returns the admitted requests currently in flight.
func (g *Gate) InFlight() int { return g.inflight }

// Queued returns the requests waiting in the accept queue.
func (g *Gate) Queued() int { return len(g.queue) }
