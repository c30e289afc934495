// Package sim is a small discrete-event simulation engine: an event heap
// driven by a virtual clock, plus the queueing primitive the cluster
// model is built from (the FCFS service station). The PRORD paper evaluates with a C++ event-driven cluster
// simulator; this package is the Go equivalent substrate.
//
// Events run in (time, seq) order, where seq is assigned when the event
// is scheduled: simultaneous events run in the order they were pushed.
// That total order is the whole determinism contract — it does not
// depend on the heap's shape — and every event scheduled runs exactly
// once.
package sim

import (
	"fmt"
	"time"
)

// Handler is the target of a typed event: Handle runs when the event
// fires, with the op code the event was scheduled under. Pointers and
// Funcs box into the interface without allocating, so a model that keeps
// a job's state in a record it already owns schedules for free.
type Handler interface {
	Handle(op int)
}

// Func adapts a plain callback to Handler; the op code is ignored.
type Func func()

// Handle implements Handler.
func (f Func) Handle(int) { f() }

// event is one scheduled Handle call, held by value in the heap.
type event struct {
	at  time.Duration
	seq uint64 // tie-break so simultaneous events run FIFO
	st  *FCFS  // the station whose job this event completes, or nil
	h   Handler
	op  int
}

func (a *event) before(b *event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// arity is the event heap's fan-out: a 4-ary heap is half as deep as a
// binary one and its sibling comparisons share cache lines.
const arity = 4

// Engine is a single-threaded discrete-event executor. The zero value is
// ready to use. Engines are not safe for concurrent use: all state lives
// on one goroutine, which is what makes the simulation deterministic.
type Engine struct {
	pq   []event // min-heap on (at, seq)
	now  time.Duration
	seq  uint64
	runs uint64 // events executed
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Executed reports how many events have run.
func (e *Engine) Executed() uint64 { return e.runs }

// Pending reports how many events are scheduled but not yet run.
func (e *Engine) Pending() int { return len(e.pq) }

// schedule pushes one event, assigning the next seq; every scheduling
// call, typed or callback, on the engine or on a station, ends here.
// Scheduling in the past panics: that is always a model bug.
func (e *Engine) schedule(t time.Duration, st *FCFS, h Handler, op int) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", t, e.now))
	}
	e.seq++
	ev := event{at: t, seq: e.seq, st: st, h: h, op: op}
	e.pq = append(e.pq, ev)
	i := len(e.pq) - 1
	for i > 0 {
		parent := (i - 1) / arity
		if !ev.before(&e.pq[parent]) {
			break
		}
		e.pq[i] = e.pq[parent]
		i = parent
	}
	e.pq[i] = ev
}

// pop removes and returns the earliest event.
func (e *Engine) pop() event {
	pq := e.pq
	top := pq[0]
	n := len(pq) - 1
	last := pq[n]
	pq[n] = event{} // release the handler
	e.pq = pq[:n]
	if n == 0 {
		return top
	}
	i := 0
	for {
		first := i*arity + 1
		if first >= n {
			break
		}
		least, end := first, min(first+arity, n)
		for c := first + 1; c < end; c++ {
			if pq[c].before(&pq[least]) {
				least = c
			}
		}
		if !pq[least].before(&last) {
			break
		}
		pq[i] = pq[least]
		i = least
	}
	pq[i] = last
	return top
}

// AtOp schedules h.Handle(op) at absolute virtual time t.
func (e *Engine) AtOp(t time.Duration, h Handler, op int) { e.schedule(t, nil, h, op) }

// AfterOp schedules h.Handle(op) d after the current virtual time.
// Negative d is treated as zero.
func (e *Engine) AfterOp(d time.Duration, h Handler, op int) {
	if d < 0 {
		d = 0
	}
	e.schedule(e.now+d, nil, h, op)
}

// At schedules fn at absolute virtual time t.
func (e *Engine) At(t time.Duration, fn func()) { e.AtOp(t, Func(fn), 0) }

// After schedules fn d after the current virtual time. Negative d is
// treated as zero.
func (e *Engine) After(d time.Duration, fn func()) { e.AfterOp(d, Func(fn), 0) }

// Step runs the earliest pending event. It reports false when no events
// remain. A station's job leaves the station's books before its handler
// runs, so the handler sees the queue without itself.
func (e *Engine) Step() bool {
	if len(e.pq) == 0 {
		return false
	}
	ev := e.pop()
	e.now = ev.at
	e.runs++
	if ev.st != nil {
		ev.st.queued--
		ev.st.served++
	}
	if ev.h != nil {
		ev.h.Handle(ev.op)
	}
	return true
}

// Run executes events until the queue drains.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes events with time <= deadline; the clock is left at
// min(deadline, time of last executed event). Events scheduled after the
// deadline remain pending.
func (e *Engine) RunUntil(deadline time.Duration) {
	for len(e.pq) > 0 && e.pq[0].at <= deadline {
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// FCFS is a first-come-first-served single-server station (one disk arm,
// one NIC, one handoff engine...). Jobs are served one at a time in
// arrival order; Schedule returns immediately and the done callback fires
// at service completion.
type FCFS struct {
	eng       *Engine
	busyUntil time.Duration
	queued    int
	served    uint64
	busyTime  time.Duration
}

// NewFCFS returns a station driven by eng.
func NewFCFS(eng *Engine) *FCFS {
	return &FCFS{eng: eng}
}

// QueueLen reports jobs waiting or in service.
func (q *FCFS) QueueLen() int { return q.queued }

// Served reports completed jobs.
func (q *FCFS) Served() uint64 { return q.served }

// BusyTime reports the cumulative time the server has spent serving.
func (q *FCFS) BusyTime() time.Duration { return q.busyTime }

// Utilization reports busy time as a fraction of the elapsed virtual time.
func (q *FCFS) Utilization() float64 {
	if q.eng.Now() == 0 {
		return 0
	}
	busy := q.busyTime
	// Don't count service scheduled beyond the current clock.
	if q.busyUntil > q.eng.Now() {
		busy -= q.busyUntil - q.eng.Now()
		if busy < 0 {
			busy = 0
		}
	}
	return float64(busy) / float64(q.eng.Now())
}

// book reserves the server for a job needing the given service time
// behind the jobs already booked, and returns the job's service start
// and end. Negative service times are treated as zero.
func (q *FCFS) book(service time.Duration) (start, end time.Duration) {
	if service < 0 {
		service = 0
	}
	start = q.eng.Now()
	if q.busyUntil > start {
		start = q.busyUntil
	}
	end = start + service
	q.busyUntil = end
	q.busyTime += service
	q.queued++
	return start, end
}

// ScheduleOp enqueues a job needing the given service time; h.Handle(op)
// (h may be nil) runs at its completion.
func (q *FCFS) ScheduleOp(service time.Duration, h Handler, op int) {
	_, end := q.book(service)
	q.eng.schedule(end, q, h, op)
}

// Schedule enqueues a job needing the given service time. done (may be
// nil) is invoked at completion with the job's service start and end
// times.
func (q *FCFS) Schedule(service time.Duration, done func(start, end time.Duration)) {
	start, end := q.book(service)
	var h Handler
	if done != nil {
		h = Func(func() { done(start, end) })
	}
	q.eng.schedule(end, q, h, 0)
}

// Delay returns how long a job arriving now would wait before starting
// service.
func (q *FCFS) Delay() time.Duration {
	if q.busyUntil <= q.eng.Now() {
		return 0
	}
	return q.busyUntil - q.eng.Now()
}
