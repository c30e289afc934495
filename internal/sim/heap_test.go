package sim

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"prord/internal/randutil"
)

// spawner is the typed handler of the order property test: event id
// fires, logs itself and schedules children whose number and delays are
// a pure function of id, so the engine and the reference model below
// grow the same event tree as long as they run it in the same order.
type spawner struct {
	eng  *Engine
	next int   // ids are handed out in push order, like seq
	ran  []int // ids in execution order
}

// children returns event id's child delays in ticks: a third of them 0
// (scheduled at now), the rest from {1, 2, 3}, so equal future times
// are common.
func children(id int) []time.Duration {
	if id > 3000 {
		return nil // the tree is finite
	}
	h := uint64(id)*0x9e3779b97f4a7c15 + 1
	h ^= h >> 29
	var out []time.Duration
	for n := h % 3; n > 0; n-- {
		h = h*6364136223846793005 + 1442695040888963407
		d := time.Duration(h>>33) % 4
		if (h>>40)%3 == 0 {
			d = 0
		}
		out = append(out, d)
	}
	return out
}

func (s *spawner) push(d time.Duration) {
	s.eng.AfterOp(d, s, s.next)
	s.next++
}

func (s *spawner) Handle(id int) {
	s.ran = append(s.ran, id)
	for _, d := range children(id) {
		s.push(d)
	}
}

// TestOrderIsStableSortByTimeThenPush runs a random event tree, full of
// time ties and of events scheduled at now, through the engine in
// RunUntil slices, and through a reference that keeps its pending
// events in push order and stable-sorts them by time before every pop.
// The two execution orders must be identical.
func TestOrderIsStableSortByTimeThenPush(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := randutil.New(seed)
		roots := make([]time.Duration, 200)
		for i := range roots {
			roots[i] = time.Duration(rng.Intn(8))
		}
		// deadlines splits the run; some fall between event times, some on
		// them, and the last Run drains the rest.
		deadlines := []time.Duration{0, 2, 2, 5, 9, 30}

		eng := &Engine{}
		s := &spawner{eng: eng}
		for _, at := range roots {
			s.push(at)
		}

		type refEvent struct {
			at time.Duration
			id int
		}
		var pending []refEvent // in push order
		nextID := 0
		refPush := func(at time.Duration) {
			pending = append(pending, refEvent{at, nextID})
			nextID++
		}
		for _, at := range roots {
			refPush(at)
		}
		var want []int
		refRunUntil := func(deadline time.Duration) {
			for {
				sort.SliceStable(pending, func(i, j int) bool { return pending[i].at < pending[j].at })
				if len(pending) == 0 || pending[0].at > deadline {
					return
				}
				ev := pending[0]
				pending = pending[1:]
				want = append(want, ev.id)
				for _, d := range children(ev.id) {
					refPush(ev.at + d)
				}
			}
		}

		for _, d := range deadlines {
			eng.RunUntil(d)
			refRunUntil(d)
			if eng.Now() != d {
				t.Fatalf("seed %d: clock %v after RunUntil(%v)", seed, eng.Now(), d)
			}
			if eng.Pending() != len(pending) {
				t.Fatalf("seed %d: %d pending after RunUntil(%v), want %d", seed, eng.Pending(), d, len(pending))
			}
		}
		eng.Run()
		refRunUntil(1 << 62)

		if eng.Executed() != uint64(len(want)) || eng.Pending() != 0 {
			t.Fatalf("seed %d: executed %d with %d pending, want %d and 0", seed, eng.Executed(), eng.Pending(), len(want))
		}
		for i := range want {
			if s.ran[i] != want[i] {
				t.Fatalf("seed %d: execution order departs from (time, push order) at position %d: ran event %d, want %d",
					seed, i, s.ran[i], want[i])
			}
		}
		if len(want) < 1000 {
			t.Fatalf("seed %d: only %d events ran; the tree is too small to test anything", seed, len(want))
		}
	}
}

// rearm is a handler that schedules itself again.
type rearm struct {
	eng *Engine
	q   *FCFS
	x   uint64
}

func (r *rearm) Handle(op int) {
	r.x ^= r.x << 13
	r.x ^= r.x >> 7
	r.x ^= r.x << 17
	d := time.Duration(r.x%1000) * time.Microsecond
	if op == 0 {
		r.eng.AfterOp(d, r, 0)
	} else {
		r.q.ScheduleOp(d, r, 1)
	}
}

// TestTypedSchedulingDoesNotAllocate: once the heap has grown to the
// pending count, scheduling a typed event — directly or as a station's
// job — and stepping it allocates nothing.
func TestTypedSchedulingDoesNotAllocate(t *testing.T) {
	eng := &Engine{}
	r := &rearm{eng: eng, q: NewFCFS(eng), x: 88172645463325252}
	for i := 0; i < 512; i++ {
		eng.AfterOp(time.Duration(i)*time.Microsecond, r, i%2)
	}
	for i := 0; i < 4096; i++ {
		eng.Step()
	}
	if allocs := testing.AllocsPerRun(1000, func() { eng.Step() }); allocs != 0 {
		t.Fatalf("steady-state typed schedule + Step allocates %v times per event", allocs)
	}
	if eng.Pending() != 512 {
		t.Fatalf("Pending = %d, want the 512 self-rescheduling events", eng.Pending())
	}
}

// probe records what a station's books say while the job's own handler
// runs.
type probe struct {
	q      *FCFS
	queued []int
	served []uint64
}

func (p *probe) Handle(int) {
	p.queued = append(p.queued, p.q.QueueLen())
	p.served = append(p.served, p.q.Served())
}

// TestStationBooksCloseBeforeHandler: the cluster's LoadOf and NavBudget
// read QueueLen from inside completion handlers, so a finishing job must
// already be off the books — not queued, counted served — when its
// handler runs, on both entry points.
func TestStationBooksCloseBeforeHandler(t *testing.T) {
	eng := &Engine{}
	q := NewFCFS(eng)
	p := &probe{q: q}
	q.ScheduleOp(time.Millisecond, p, 0)
	q.Schedule(2*time.Millisecond, func(_, _ time.Duration) { p.Handle(0) })
	q.ScheduleOp(3*time.Millisecond, nil, 0)
	if q.QueueLen() != 3 {
		t.Fatalf("QueueLen = %d with three jobs booked", q.QueueLen())
	}
	eng.Run()
	if fmt.Sprint(p.queued) != "[2 1]" || fmt.Sprint(p.served) != "[1 2]" {
		t.Errorf("handlers saw QueueLen %v and Served %v, want [2 1] and [1 2]", p.queued, p.served)
	}
	if q.QueueLen() != 0 || q.Served() != 3 || eng.Executed() < 3 {
		t.Errorf("after the run QueueLen=%d Served=%d Executed=%d", q.QueueLen(), q.Served(), eng.Executed())
	}
}

func TestTypedSchedulingInPastPanics(t *testing.T) {
	eng := &Engine{}
	eng.RunUntil(time.Second)
	defer func() {
		if recover() == nil {
			t.Error("AtOp in the past should panic")
		}
	}()
	eng.AtOp(time.Millisecond, Func(func() {}), 0)
}
