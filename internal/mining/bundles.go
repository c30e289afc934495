package mining

import (
	"sort"

	"prord/internal/trace"
)

// Bundles is the embedded-object table (EOT, §3.2): for every main page,
// the objects that are requested together with it. The distributor uses it
// to forward embedded-object requests without consulting the dispatcher,
// and the backends use it to prefetch a page's objects when the page is
// requested.
type Bundles struct {
	minSupport float64
	pageViews  map[string]int
	objCounts  map[string]map[string]int
	objects    map[string][]string // materialized, support-filtered
	parentOf   map[string]string   // object -> its (most common) main page
	dirty      bool
}

// NewBundles returns an empty bundle table. minSupport is the fraction of
// a page's views in which an object must appear to be considered part of
// the page's bundle (e.g. 0.5); values outside (0, 1] fall back to 0.5.
func NewBundles(minSupport float64) *Bundles {
	if minSupport <= 0 || minSupport > 1 {
		minSupport = 0.5
	}
	return &Bundles{
		minSupport: minSupport,
		pageViews:  make(map[string]int),
		objCounts:  make(map[string]map[string]int),
	}
}

// ObservePage records one view of a main page.
func (b *Bundles) ObservePage(page string) {
	b.pageViews[page]++
	b.dirty = true
}

// ObserveObject records that object was requested under page.
func (b *Bundles) ObserveObject(page, object string) {
	m, ok := b.objCounts[page]
	if !ok {
		m = make(map[string]int)
		b.objCounts[page] = m
	}
	m[object]++
	b.dirty = true
}

// Train consumes a trace. When requests carry Parent attribution it is
// used directly; otherwise objects are attributed to the session's most
// recent main page (the heuristic real log miners use).
func (b *Bundles) Train(tr *trace.Trace) {
	lastPage := make(map[int]string)
	for i := range tr.Requests {
		r := &tr.Requests[i]
		switch {
		case r.Embedded && r.Parent != "":
			b.ObserveObject(r.Parent, r.Path)
		case r.Embedded || trace.IsEmbeddedPath(r.Path):
			if p := lastPage[r.Session]; p != "" {
				b.ObserveObject(p, r.Path)
			}
		default:
			b.ObservePage(r.Path)
			lastPage[r.Session] = r.Path
		}
	}
}

// rebuild materializes the support-filtered object lists.
func (b *Bundles) rebuild() {
	if !b.dirty {
		return
	}
	b.objects = make(map[string][]string, len(b.objCounts))
	b.parentOf = make(map[string]string)
	bestCount := make(map[string]int)
	for page, objs := range b.objCounts {
		views := b.pageViews[page]
		if views == 0 {
			views = 1
		}
		var kept []string
		for obj, count := range objs {
			if float64(count) >= b.minSupport*float64(views) {
				kept = append(kept, obj)
			}
			// Ties go to the smaller page path: the range order of a map
			// must not pick the parent.
			if best := bestCount[obj]; count > best || (count == best && page < b.parentOf[obj]) {
				bestCount[obj] = count
				b.parentOf[obj] = page
			}
		}
		sort.Strings(kept)
		if len(kept) > 0 {
			b.objects[page] = kept
		}
	}
	b.dirty = false
}

// Objects returns the mined bundle for page: the embedded objects that
// pass the support threshold, sorted.
func (b *Bundles) Objects(page string) []string {
	b.rebuild()
	return b.objects[page]
}

// Parent returns the main page an object most commonly belongs to, and
// whether the object is known at all.
func (b *Bundles) Parent(object string) (string, bool) {
	b.rebuild()
	p, ok := b.parentOf[object]
	return p, ok
}

// Pages returns every page that has a non-empty mined bundle, sorted.
func (b *Bundles) Pages() []string {
	b.rebuild()
	out := make([]string, 0, len(b.objects))
	for p := range b.objects {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Score compares the mined bundles against ground truth (page -> object
// paths) and returns precision and recall over (page, object) pairs.
func (b *Bundles) Score(truth map[string][]string) (precision, recall float64) {
	b.rebuild()
	truthSet := make(map[string]map[string]bool, len(truth))
	var truthPairs int
	for page, objs := range truth {
		m := make(map[string]bool, len(objs))
		for _, o := range objs {
			m[o] = true
		}
		truthSet[page] = m
		truthPairs += len(objs)
	}
	var mined, correct int
	for page, objs := range b.objects {
		for _, o := range objs {
			mined++
			if truthSet[page][o] {
				correct++
			}
		}
	}
	if mined > 0 {
		precision = float64(correct) / float64(mined)
	}
	if truthPairs > 0 {
		recall = float64(correct) / float64(truthPairs)
	}
	return precision, recall
}
