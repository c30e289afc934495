package mining

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"prord/internal/randutil"
	"prord/internal/trace"
)

func TestBundlesDirectAttribution(t *testing.T) {
	b := NewBundles(0.5)
	for i := 0; i < 4; i++ {
		b.ObservePage("/p.html")
		b.ObserveObject("/p.html", "/a.gif")
	}
	b.ObserveObject("/p.html", "/rare.gif") // 1/4 views: below support
	objs := b.Objects("/p.html")
	if len(objs) != 1 || objs[0] != "/a.gif" {
		t.Fatalf("Objects = %v, want [/a.gif]", objs)
	}
	if parent, ok := b.Parent("/a.gif"); !ok || parent != "/p.html" {
		t.Fatalf("Parent(/a.gif) = %q, %v", parent, ok)
	}
	if _, ok := b.Parent("/nope.gif"); ok {
		t.Fatal("unknown object should have no parent")
	}
}

func TestBundlesTrainWithParentField(t *testing.T) {
	tr := seqTrace([]string{"/p.html"})
	tr.Files["/x.gif"] = 10
	tr.Requests = append(tr.Requests, trace.Request{
		Session: 0, Client: "c", Path: "/x.gif", Size: 10,
		Embedded: true, Parent: "/p.html", Group: -1,
	})
	b := NewBundles(0.5)
	b.Train(tr)
	objs := b.Objects("/p.html")
	if len(objs) != 1 || objs[0] != "/x.gif" {
		t.Fatalf("Objects = %v, want [/x.gif]", objs)
	}
}

func TestBundlesTrainHeuristicAttribution(t *testing.T) {
	// No Parent fields: objects must attach to the session's last page by
	// the extension heuristic.
	tr := &trace.Trace{Name: "h", Files: map[string]int64{
		"/p.html": 100, "/i.gif": 10, "/q.html": 100,
	}}
	add := func(sess int, path string) {
		tr.Requests = append(tr.Requests, trace.Request{
			Session: sess, Client: "c", Path: path, Size: tr.Files[path], Group: -1,
		})
	}
	add(0, "/p.html")
	add(0, "/i.gif")
	add(0, "/q.html")
	b := NewBundles(0.5)
	b.Train(tr)
	objs := b.Objects("/p.html")
	if len(objs) != 1 || objs[0] != "/i.gif" {
		t.Fatalf("heuristic Objects = %v, want [/i.gif]", objs)
	}
	if len(b.Objects("/q.html")) != 0 {
		t.Fatal("/q.html should have no bundle")
	}
}

func TestBundlesPages(t *testing.T) {
	b := NewBundles(0.5)
	b.ObservePage("/b.html")
	b.ObserveObject("/b.html", "/1.gif")
	b.ObservePage("/a.html")
	b.ObserveObject("/a.html", "/2.gif")
	pages := b.Pages()
	if len(pages) != 2 || pages[0] != "/a.html" || pages[1] != "/b.html" {
		t.Fatalf("Pages = %v, want sorted [/a.html /b.html]", pages)
	}
}

func TestBundlesScoreOnSyntheticSite(t *testing.T) {
	site, err := trace.GenerateSite(trace.SiteConfig{
		Pages: 80, Groups: 4, MeanEmbedded: 3, MaxEmbedded: 8,
		MeanPageKB: 5, MaxPageKB: 50, MeanObjectKB: 3, MaxObjectKB: 20,
		LinksPerPage: 4, IntraGroupProb: 0.9, PopTheta: 0.8,
	}, randutil.New(3))
	if err != nil {
		t.Fatal(err)
	}
	cfg := trace.DefaultTraceConfig()
	cfg.Requests = 6000
	tg, err := trace.Generate("t", site, cfg, randutil.New(4))
	if err != nil {
		t.Fatal(err)
	}
	b := NewBundles(0.5)
	b.Train(tg)
	precision, recall := b.Score(site.Bundles())
	if precision < 0.95 {
		t.Fatalf("bundle precision = %v, want ~1 with Parent attribution", precision)
	}
	if recall < 0.5 {
		t.Fatalf("bundle recall = %v, want >= 0.5 on a 6k-request trace", recall)
	}
}

func TestBundlesScoreEmpty(t *testing.T) {
	b := NewBundles(0.5)
	p, r := b.Score(map[string][]string{"/x": {"/y"}})
	if p != 0 || r != 0 {
		t.Fatalf("empty miner score = %v, %v, want 0, 0", p, r)
	}
}

func TestBundlesInvalidSupportFallsBack(t *testing.T) {
	b := NewBundles(-3)
	b.ObservePage("/p")
	b.ObserveObject("/p", "/o.gif")
	if len(b.Objects("/p")) != 1 {
		t.Fatal("fallback support should admit an always-co-occurring object")
	}
}

func TestRankerTableAndDecay(t *testing.T) {
	r := NewRanker(0.5)
	for i := 0; i < 10; i++ {
		r.Observe("/hot")
	}
	r.Observe("/cold")
	table := r.Table()
	if table[0].Path != "/hot" || table[0].Count != 10 {
		t.Fatalf("Table head = %+v, want /hot:10", table[0])
	}
	top := r.Top(1)
	if len(top) != 1 || top[0] != "/hot" {
		t.Fatalf("Top(1) = %v", top)
	}
	r.Age()
	if r.Count("/hot") != 5 || r.Count("/cold") != 0.5 {
		t.Fatalf("after Age: hot=%v cold=%v", r.Count("/hot"), r.Count("/cold"))
	}
	// Seven more agings push /cold below the cleanup floor.
	for i := 0; i < 7; i++ {
		r.Age()
	}
	if r.Count("/cold") != 0 {
		t.Fatalf("cold should be dropped, count=%v", r.Count("/cold"))
	}
	if r.Len() != 1 {
		t.Fatalf("Len = %d, want 1", r.Len())
	}
}

func TestRankerTrain(t *testing.T) {
	tr := seqTrace([]string{"A", "A", "B"})
	r := NewRanker(0.5)
	r.Train(tr)
	if r.Count("A") != 2 || r.Count("B") != 1 {
		t.Fatalf("counts A=%v B=%v", r.Count("A"), r.Count("B"))
	}
}

func TestRankerDeterministicTies(t *testing.T) {
	r := NewRanker(0.5)
	r.Observe("/b")
	r.Observe("/a")
	tab := r.Table()
	if tab[0].Path != "/a" || tab[1].Path != "/b" {
		t.Fatalf("tie break should be lexicographic: %+v", tab)
	}
	if got := r.Top(99); len(got) != 2 {
		t.Fatalf("Top clamps to table size, got %v", got)
	}
}

// TestRankerTableOrderOnTies holds TableInto — slices.SortFunc into a
// reused buffer — to the order Table has always had, written out here
// as the sort.Slice it used to be: count descending, path ascending.
// The table is full of count ties, where a comparator that is not a
// total order would let the two sorts disagree.
func TestRankerTableOrderOnTies(t *testing.T) {
	r := NewRanker(0.9)
	rng := randutil.New(5)
	for i := 0; i < 3000; i++ {
		path := fmt.Sprintf("/f%04d", rng.Intn(3000))
		for n := rng.Intn(4); n >= 0; n-- {
			r.Observe(path)
		}
		if i%500 == 499 {
			r.Age() // fractional counts, still heavily tied
		}
	}
	want := make([]Entry, 0, r.Len())
	for p, c := range r.counts {
		want = append(want, Entry{Path: p, Count: c})
	}
	sort.Slice(want, func(i, j int) bool {
		if want[i].Count != want[j].Count {
			return want[i].Count > want[j].Count
		}
		return want[i].Path < want[j].Path
	})
	ties := 0
	for i := 1; i < len(want); i++ {
		if want[i].Count == want[i-1].Count {
			ties++
		}
	}
	if ties < len(want)/2 {
		t.Fatalf("only %d ties in %d rows: the table does not test tie order", ties, len(want))
	}
	buf := r.TableInto(nil)
	if !reflect.DeepEqual(buf, want) {
		t.Fatal("TableInto order differs from count desc, path asc")
	}
	if got := r.Table(); !reflect.DeepEqual(got, want) {
		t.Fatal("Table order differs from count desc, path asc")
	}
	r.Observe(want[len(want)-1].Path) // move one row, then rank into the same storage
	again := r.TableInto(buf)
	if &again[0] != &buf[0] {
		t.Error("TableInto did not reuse a buffer that was large enough")
	}
	if allocs := testing.AllocsPerRun(10, func() { again = r.TableInto(again) }); allocs != 0 {
		t.Errorf("TableInto into a large enough buffer allocates %v times", allocs)
	}
}
