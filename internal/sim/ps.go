package sim

import (
	"container/heap"
	"time"
)

// PS is an (egalitarian) processor-sharing station: all resident jobs
// progress simultaneously, each receiving 1/n of the server's capacity
// when n jobs are resident. It models a time-sliced web-server CPU more
// faithfully than FCFS: short requests are not stuck behind long ones,
// at the price of stretching every job under load.
//
// Implementation: between arrival/departure events the resident set is
// fixed, so each job's remaining service drains at rate 1/n. The station
// keeps jobs in a heap ordered by "virtual finish work" — the attained
// service level at which each job completes — and advances a virtual
// work clock v(t) with dv/dt = 1/n.
type PS struct {
	eng    *Engine
	jobs   psHeap
	vwork  float64       // virtual work accumulated per resident job
	vAt    time.Duration // real time when vwork was last advanced
	seq    uint64
	served uint64
	busy   time.Duration
	// next pending departure event id; stale events are ignored.
	wakeSeq uint64
}

type psJob struct {
	finishV float64 // vwork level at which the job completes
	seq     uint64
	h       Handler
	op      int
	idx     int
}

type psHeap []*psJob

func (h psHeap) Len() int { return len(h) }
func (h psHeap) Less(i, j int) bool {
	if h[i].finishV != h[j].finishV {
		return h[i].finishV < h[j].finishV
	}
	return h[i].seq < h[j].seq
}
func (h psHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i]; h[i].idx = i; h[j].idx = j }
func (h *psHeap) Push(x any)   { j := x.(*psJob); j.idx = len(*h); *h = append(*h, j) }
func (h *psHeap) Pop() any {
	old := *h
	n := len(old)
	j := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return j
}

// NewPS returns a processor-sharing station driven by eng.
func NewPS(eng *Engine) *PS {
	return &PS{eng: eng}
}

// QueueLen reports resident jobs.
func (q *PS) QueueLen() int { return len(q.jobs) }

// Served reports completed jobs.
func (q *PS) Served() uint64 { return q.served }

// BusyTime reports cumulative time with at least one resident job.
func (q *PS) BusyTime() time.Duration { return q.busy }

// advance brings the virtual work clock to the current time.
func (q *PS) advance() {
	now := q.eng.Now()
	if n := len(q.jobs); n > 0 && now > q.vAt {
		dt := now - q.vAt
		q.vwork += dt.Seconds() / float64(n)
		q.busy += dt
	}
	q.vAt = now
}

// ScheduleOp adds a job requiring the given total service time;
// h.Handle(op) (h may be nil) runs at its completion. Negative service
// is treated as zero.
func (q *PS) ScheduleOp(service time.Duration, h Handler, op int) {
	if service < 0 {
		service = 0
	}
	q.advance()
	q.seq++
	job := &psJob{
		finishV: q.vwork + service.Seconds(),
		seq:     q.seq,
		h:       h,
		op:      op,
	}
	heap.Push(&q.jobs, job)
	q.rearm()
}

// Schedule adds a job requiring the given total service time; done (may
// be nil) fires at completion with the job's arrival and completion
// times (processor sharing "starts" every resident job immediately).
func (q *PS) Schedule(service time.Duration, done func(start, end time.Duration)) {
	var h Handler
	if done != nil {
		arrived := q.eng.Now()
		h = Func(func() { done(arrived, q.eng.Now()) })
	}
	q.ScheduleOp(service, h, 0)
}

// Utilization reports busy time as a fraction of elapsed virtual time.
func (q *PS) Utilization() float64 {
	if q.eng.Now() == 0 {
		return 0
	}
	return float64(q.busy) / float64(q.eng.Now())
}

// rearm schedules the next departure.
func (q *PS) rearm() {
	if len(q.jobs) == 0 {
		return
	}
	head := q.jobs[0]
	remaining := head.finishV - q.vwork // in virtual work units (seconds)
	if remaining < 0 {
		remaining = 0
	}
	// With n resident jobs, virtual work advances at 1/n per second.
	real := time.Duration(remaining * float64(len(q.jobs)) * float64(time.Second))
	q.wakeSeq++
	my := q.wakeSeq
	q.eng.After(real, func() {
		if my != q.wakeSeq {
			return // superseded by a later arrival/departure
		}
		q.depart()
	})
}

// depart completes the head job and rearms. The armed wake corresponds
// exactly to the current head (arrivals re-arm), so the head is popped
// unconditionally; this absorbs duration-rounding error that could
// otherwise leave the wake a hair early and spin the event loop.
func (q *PS) depart() {
	q.advance()
	if len(q.jobs) == 0 {
		return
	}
	job := heap.Pop(&q.jobs).(*psJob)
	if job.finishV > q.vwork {
		q.vwork = job.finishV // absorb rounding slack
	}
	q.served++
	if job.h != nil {
		job.h.Handle(job.op)
	}
	// Jobs tied at the same virtual finish depart together.
	for len(q.jobs) > 0 && q.jobs[0].finishV <= q.vwork+1e-12 {
		tied := heap.Pop(&q.jobs).(*psJob)
		q.served++
		if tied.h != nil {
			tied.h.Handle(tied.op)
		}
	}
	q.rearm()
}
