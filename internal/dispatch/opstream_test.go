package dispatch_test

// Op-stream golden: a seeded driver mixes every operation of the
// decision core's public surface — Route, Done ok and failed, Rebook,
// hedge target/begin/finish, InvalidateBackend, CloseConn,
// PlanProactive, exact-mode residency reports and flips of the
// Available and Degraded hooks — checks the core's accounting
// invariants after every step, and reduces everything the core
// answered to one FNV-1a digest per locality mode. A rework of the
// core's internal state must keep both digests.

import (
	"fmt"
	"hash"
	"hash/fnv"
	"reflect"
	"sort"
	"testing"
	"time"

	"prord/internal/dispatch"
	"prord/internal/mining"
	"prord/internal/policy"
	"prord/internal/randutil"
	"prord/internal/trace"
)

// The op-stream digests of the two locality modes, captured before the
// core's per-file state moved to bitset records. They change only when
// a decision or an observable answer changes.
const (
	goldenOpStreamExact      uint64 = 0x28cb119ef273eb76
	goldenOpStreamOptimistic uint64 = 0xc62d8ff0f08cc591
)

// opBooking is one outstanding Route, Rebook or hedge booking the
// driver holds and must release.
type opBooking struct {
	key, path string
	server    int
	retried   bool
}

// opDriver runs one seeded operation stream against a core.
type opDriver struct {
	t     *testing.T
	c     *dispatch.Core
	rng   *randutil.Source
	h     hash.Hash64
	exact bool
	m     *mining.Miner
	paths []string
	sizes map[string]int64
	keys  []string
	now   time.Time

	up, gray []bool // the Available and Degraded masks the hooks read

	bookings   []opBooking
	hedges     []opBooking
	lastPage   map[string]string
	routed     int64
	unroutable int64
	prevStats  []int64
	seen       map[string]int // arms the stream reached, checked at the end
}

func (d *opDriver) logf(format string, args ...any) { fmt.Fprintf(d.h, format, args...) }

// pick removes and returns a random element of list.
func (d *opDriver) pick(list *[]opBooking) opBooking {
	i := d.rng.Intn(len(*list))
	b := (*list)[i]
	(*list)[i] = (*list)[len(*list)-1]
	*list = (*list)[:len(*list)-1]
	return b
}

func (d *opDriver) route() {
	key := d.keys[d.rng.Intn(len(d.keys))]
	path := d.paths[d.rng.Intn(len(d.paths))]
	if objs := d.m.Bundles.Objects(d.lastPage[key]); len(objs) > 0 && d.rng.Intn(2) == 0 {
		path = objs[d.rng.Intn(len(objs))]
	} else if d.rng.Intn(10) == 0 {
		path = fmt.Sprintf("/cgi/q%d.cgi", d.rng.Intn(4))
	}
	sessions := d.c.SessionCount()
	out := d.c.Route(key, path, d.sizes[path], d.now)
	d.logf("R %s %s %+v\n", key, path, out)
	if d.c.SessionCount() < sessions {
		d.seen["session eviction"]++
	}
	if !out.OK {
		d.unroutable++
		d.seen["unroutable"]++
		return
	}
	d.routed++
	if out.Embedded {
		d.seen["embedded forward"]++
	}
	if trace.IsDynamicPath(path) {
		d.seen["dynamic route"]++
	}
	if !d.up[out.Server] {
		d.t.Fatalf("Route(%s, %s) landed on unavailable backend %d", key, path, out.Server)
	}
	if out.Source >= 0 && !d.up[out.Source] {
		d.t.Fatalf("Route(%s, %s) sources from unavailable backend %d", key, path, out.Source)
	}
	if !trace.IsEmbeddedPath(path) {
		d.lastPage[key] = path
	}
	d.bookings = append(d.bookings, opBooking{key: key, path: path, server: out.Server})
}

func (d *opDriver) done() {
	b := d.pick(&d.bookings)
	failed := d.rng.Intn(4) == 0
	d.c.Done(b.key, b.server, b.path, failed, b.retried)
	d.logf("D %s %d %s %t %t\n", b.key, b.server, b.path, failed, b.retried)
	if !failed || d.rng.Intn(2) == 0 {
		return
	}
	next, ok := d.c.Rebook(b.key, b.path, b.server, d.now)
	d.logf("B %s %s %d -> %d %t\n", b.key, b.path, b.server, next, ok)
	if !ok {
		return
	}
	d.seen["rebook"]++
	if next == b.server || !d.up[next] {
		d.t.Fatalf("Rebook(%s) picked %d (excluded %d, up %v)", b.path, next, b.server, d.up)
	}
	d.bookings = append(d.bookings, opBooking{key: b.key, path: b.path, server: next, retried: true})
}

func (d *opDriver) plan() {
	b := d.bookings[d.rng.Intn(len(d.bookings))]
	p, ok := d.c.PlanProactive(b.key, b.server, b.path, d.now)
	d.logf("P %s %d %s -> %+v %t\n", b.key, b.server, b.path, p, ok)
	if ok {
		d.seen["plan"]++
	}
}

func (d *opDriver) hedge() {
	b := d.bookings[d.rng.Intn(len(d.bookings))]
	target, ok := d.c.HedgeTarget(b.path, b.server, d.now)
	d.logf("H %s %d -> %d %t\n", b.path, b.server, target, ok)
	if !ok {
		return
	}
	if target == b.server || !d.up[target] || d.gray[target] {
		d.t.Fatalf("HedgeTarget(%s) picked %d (primary %d, up %v, gray %v)", b.path, target, b.server, d.up, d.gray)
	}
	began := d.c.TryBeginHedge(target, b.path, 2)
	d.logf("T %d %s %t\n", target, b.path, began)
	if began {
		d.seen["hedge"]++
		d.hedges = append(d.hedges, opBooking{path: b.path, server: target})
	}
}

func (d *opDriver) finishHedge() {
	b := d.pick(&d.hedges)
	failed, won := d.rng.Intn(3) == 0, d.rng.Intn(2) == 0
	d.c.FinishHedge(b.server, b.path, failed, won)
	d.logf("F %d %s %t %t\n", b.server, b.path, failed, won)
}

// step runs one randomly chosen operation.
func (d *opDriver) step() {
	n := len(d.c.Loads())
	switch op := d.rng.Intn(100); {
	case op < 30 && len(d.bookings) < 32:
		d.route()
	case op < 60:
		if len(d.bookings) > 0 {
			d.done()
		}
	case op < 68:
		if len(d.bookings) > 0 {
			d.plan()
		}
	case op < 74:
		if len(d.bookings) > 0 {
			d.hedge()
		}
	case op < 79:
		if len(d.hedges) > 0 {
			d.finishHedge()
		}
	case op < 81:
		s := d.rng.Intn(n)
		d.c.InvalidateBackend(s)
		d.logf("I %d\n", s)
	case op < 84:
		key := d.keys[d.rng.Intn(len(d.keys))]
		d.c.CloseConn(key)
		d.logf("C %s\n", key)
	case op < 90:
		s, path := d.rng.Intn(n), d.paths[d.rng.Intn(len(d.paths))]
		if !d.exact {
			break
		}
		if d.rng.Intn(2) == 0 {
			d.c.NoteResident(s, path)
			d.logf("N+ %d %s\n", s, path)
		} else {
			d.c.NoteGone(s, path)
			d.logf("N- %d %s\n", s, path)
		}
	case op < 95:
		s := d.rng.Intn(n)
		d.up[s] = !d.up[s]
		d.logf("A %d %t\n", s, d.up[s])
	default:
		s := d.rng.Intn(n)
		d.gray[s] = !d.gray[s]
		d.logf("G %d %t\n", s, d.gray[s])
	}
}

// statCounters flattens every Stats counter, PerBackend included.
func statCounters(s dispatch.Stats) []int64 {
	v := reflect.ValueOf(s)
	var out []int64
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Int64:
			out = append(out, f.Int())
		case reflect.Slice:
			for j := 0; j < f.Len(); j++ {
				out = append(out, f.Index(j).Int())
			}
		}
	}
	return out
}

// check asserts the accounting invariants that hold after every step.
func (d *opDriver) check(step int) {
	sum := 0
	for _, l := range d.c.Loads() {
		sum += l
	}
	if want := len(d.bookings) + len(d.hedges); sum != want {
		d.t.Fatalf("step %d: Σ Loads = %d, driver holds %d bookings", step, sum, want)
	}
	st := d.c.Stats()
	if st.Requests != d.routed+d.unroutable || st.Unroutable != d.unroutable {
		d.t.Fatalf("step %d: Requests/Unroutable = %d/%d, driver routed %d and saw %d unroutable",
			step, st.Requests, st.Unroutable, d.routed, d.unroutable)
	}
	cur := statCounters(st)
	for i := range d.prevStats {
		if cur[i] < d.prevStats[i] {
			d.t.Fatalf("step %d: Stats counter %d went %d -> %d", step, i, d.prevStats[i], cur[i])
		}
	}
	d.prevStats = cur
}

// snapshot digests the core's observable tables.
func (d *opDriver) snapshot() {
	digestSets := func(tag string, m map[string][]int) {
		files := make([]string, 0, len(m))
		for f := range m {
			files = append(files, f)
		}
		sort.Strings(files)
		for _, f := range files {
			d.logf("%s %s %v\n", tag, f, m[f])
		}
	}
	digestSets("M", d.c.PrefetchMarks())
	digestSets("S", d.c.ResidencySnapshot())
	d.logf("L %v\nX %+v\nQ %d %d\n", d.c.Loads(), d.c.Stats(), d.c.InFlightFiles(), d.c.SessionCount())
	for s := range d.up {
		if d.c.LocalityLen(s) == 16 {
			d.seen["full locality LRU"]++
		}
	}
}

// runOpStream drives steps operations against a fresh core in the given
// locality mode and returns the stream's digest.
func runOpStream(t *testing.T, exact bool, seed int64, steps int) uint64 {
	t.Helper()
	_, full, err := trace.GeneratePreset(trace.PresetSynthetic, 600.0/30000.0, 5151)
	if err != nil {
		t.Fatal(err)
	}
	train, _ := full.Split(0.5)
	m := mining.Mine(train, mining.Options{})

	const backends = 5
	d := &opDriver{
		t:        t,
		rng:      randutil.New(seed),
		h:        fnv.New64a(),
		exact:    exact,
		m:        m,
		sizes:    full.Files,
		now:      time.Unix(0, 0),
		up:       make([]bool, backends),
		gray:     make([]bool, backends),
		lastPage: make(map[string]string),
		seen:     make(map[string]int),
	}
	// A small universe — the mined pages, their bundles and a sample of
	// the rest of the site — so locality, prefetch marks and in-flight
	// joins recur.
	for _, page := range m.Bundles.Pages() {
		d.paths = append(d.paths, page)
		d.paths = append(d.paths, m.Bundles.Objects(page)...)
	}
	site := make([]string, 0, len(full.Files))
	for p := range full.Files {
		site = append(site, p)
	}
	sort.Strings(site)
	for i := 0; i < len(site); i += 32 {
		d.paths = append(d.paths, site[i])
	}
	for i := 0; i < 400; i++ {
		d.keys = append(d.keys, fmt.Sprintf("10.7.%d.%d:80", i/256, i%256))
	}
	for s := range d.up {
		d.up[s] = true
	}
	d.c, err = dispatch.New(dispatch.Config{
		Backends:  backends,
		Policy:    policy.NewPRORD(policy.Thresholds{}),
		Miner:     m,
		Features:  dispatch.Features{Bundle: true, NavPrefetch: true, GroupPrefetch: true},
		Exact:     exact,
		Available: func(s int, _ time.Time) bool { return d.up[s] },
		Degraded:  func(s int) bool { return d.gray[s] },
		// Small bounds so the locality LRUs and the idle-session valve
		// evict during the stream (300 sessions split over two stripes).
		LocalityEntries: 16,
		MaxSessions:     300,
	})
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < steps; i++ {
		d.step()
		d.check(i)
		if i%64 == 63 {
			d.snapshot()
		}
		d.now = d.now.Add(10 * time.Millisecond)
	}

	// Drain: every booking released, the core's books must be empty.
	for len(d.bookings) > 0 {
		b := d.pick(&d.bookings)
		d.c.Done(b.key, b.server, b.path, false, b.retried)
	}
	for len(d.hedges) > 0 {
		b := d.pick(&d.hedges)
		d.c.FinishHedge(b.server, b.path, false, false)
	}
	d.check(steps)
	d.snapshot()
	for s, l := range d.c.Loads() {
		if l != 0 {
			t.Errorf("backend %d still has %d booked requests after drain", s, l)
		}
	}
	if n := d.c.InFlightFiles(); n != 0 {
		t.Errorf("%d files still in flight after drain", n)
	}
	if _, busy, problem := d.c.SessionCheck(); problem != "" || busy != 0 {
		t.Errorf("session table after drain: %d busy, problem %q", busy, problem)
	}
	arms := []string{"session eviction", "unroutable", "embedded forward", "dynamic route", "rebook", "plan", "hedge"}
	if !exact {
		arms = append(arms, "full locality LRU")
	}
	for _, arm := range arms {
		if d.seen[arm] == 0 {
			t.Errorf("the stream never reached %q", arm)
		}
	}
	return d.h.Sum64()
}

// TestOpStreamGolden pins the core's answers over the mixed operation
// stream in both locality modes.
func TestOpStreamGolden(t *testing.T) {
	for _, tc := range []struct {
		name  string
		exact bool
		want  uint64
	}{
		{"exact", true, goldenOpStreamExact},
		{"optimistic", false, goldenOpStreamOptimistic},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := runOpStream(t, tc.exact, 34, 10000); got != tc.want {
				t.Errorf("op-stream digest = %#x, want %#x", got, tc.want)
			}
		})
	}
}
