package trace

import (
	"reflect"
	"testing"
	"time"

	"prord/internal/randutil"
)

func smallSite(t *testing.T, seed int64) *Site {
	t.Helper()
	cfg := DefaultSiteConfig()
	cfg.Pages = 100
	cfg.Groups = 4
	site, err := GenerateSite(cfg, randutil.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return site
}

func smallTrace(t *testing.T, seed int64) (*Site, *Trace) {
	t.Helper()
	site := smallSite(t, seed)
	cfg := DefaultTraceConfig()
	cfg.Requests = 2000
	tr, err := Generate("test", site, cfg, randutil.New(seed+1))
	if err != nil {
		t.Fatal(err)
	}
	return site, tr
}

func TestGenerateSiteShape(t *testing.T) {
	site := smallSite(t, 1)
	if len(site.Pages) != 100 {
		t.Fatalf("pages = %d, want 100", len(site.Pages))
	}
	if len(site.Groups) != 4 {
		t.Fatalf("groups = %d, want 4", len(site.Groups))
	}
	for i := range site.Pages {
		p := &site.Pages[i]
		if p.Size <= 0 {
			t.Fatalf("page %d non-positive size", i)
		}
		if p.Group < 0 || p.Group >= 4 {
			t.Fatalf("page %d group %d out of range", i, p.Group)
		}
		for _, l := range p.Links {
			if l < 0 || l >= len(site.Pages) || l == i {
				t.Fatalf("page %d has invalid link %d", i, l)
			}
		}
		for _, o := range p.Embedded {
			if o.Size <= 0 {
				t.Fatalf("page %d object %s non-positive size", i, o.Path)
			}
		}
	}
}

func TestGenerateSiteDeterministic(t *testing.T) {
	a := smallSite(t, 42)
	b := smallSite(t, 42)
	if a.NumFiles() != b.NumFiles() || a.TotalBytes() != b.TotalBytes() {
		t.Fatal("same seed should produce identical sites")
	}
	for i := range a.Pages {
		if a.Pages[i].Path != b.Pages[i].Path || a.Pages[i].Size != b.Pages[i].Size {
			t.Fatalf("page %d differs between same-seed sites", i)
		}
	}
}

func TestGenerateSiteValidation(t *testing.T) {
	bad := []SiteConfig{
		{},
		{Pages: 10, Groups: 0, LinksPerPage: 2, MeanPageKB: 1, MeanObjectKB: 1},
		{Pages: 10, Groups: 20, LinksPerPage: 2, MeanPageKB: 1, MeanObjectKB: 1},
		{Pages: 10, Groups: 2, LinksPerPage: 0, MeanPageKB: 1, MeanObjectKB: 1},
		{Pages: 10, Groups: 2, LinksPerPage: 2, MeanPageKB: 0, MeanObjectKB: 1},
	}
	for i, cfg := range bad {
		if _, err := GenerateSite(cfg, randutil.New(1)); err == nil {
			t.Errorf("config %d should fail validation", i)
		}
	}
}

func TestGenerateTraceValid(t *testing.T) {
	_, tr := smallTrace(t, 7)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(tr.Requests) < 2000 {
		t.Fatalf("requests = %d, want >= 2000", len(tr.Requests))
	}
}

func TestGenerateTraceDeterministic(t *testing.T) {
	_, a := smallTrace(t, 7)
	_, b := smallTrace(t, 7)
	if len(a.Requests) != len(b.Requests) {
		t.Fatal("same-seed traces differ in length")
	}
	for i := range a.Requests {
		if a.Requests[i] != b.Requests[i] {
			t.Fatalf("request %d differs between same-seed traces", i)
		}
	}
}

func TestEmbeddedRequestsFollowParent(t *testing.T) {
	_, tr := smallTrace(t, 3)
	lastPage := make(map[int]string)
	for i := range tr.Requests {
		r := &tr.Requests[i]
		if r.Embedded {
			if r.Parent != lastPage[r.Session] {
				t.Fatalf("request %d embedded parent %q but session last page %q",
					i, r.Parent, lastPage[r.Session])
			}
		} else {
			lastPage[r.Session] = r.Path
		}
	}
}

func TestSessionsAreConsistent(t *testing.T) {
	_, tr := smallTrace(t, 3)
	client := make(map[int]string)
	group := make(map[int]int)
	for i := range tr.Requests {
		r := &tr.Requests[i]
		if c, ok := client[r.Session]; ok && c != r.Client {
			t.Fatalf("session %d has two clients", r.Session)
		}
		if g, ok := group[r.Session]; ok && g != r.Group {
			t.Fatalf("session %d has two groups", r.Session)
		}
		client[r.Session] = r.Client
		group[r.Session] = r.Group
	}
	sess := tr.Sessions()
	if len(sess) != len(client) {
		t.Fatalf("Sessions() found %d sessions, want %d", len(sess), len(client))
	}
	for id, idxs := range sess {
		for j := 1; j < len(idxs); j++ {
			if tr.Requests[idxs[j-1]].Time > tr.Requests[idxs[j]].Time {
				t.Fatalf("session %d indices out of time order", id)
			}
		}
	}
}

// TestSessionsSlicesDoNotShareRoom: Sessions carves every slice out of
// one backing array, so each must hold exactly its session's indices in
// order, and appending to one must not write into its neighbour.
func TestSessionsSlicesDoNotShareRoom(t *testing.T) {
	_, tr := smallTrace(t, 3)
	want := make(map[int][]int)
	for i := range tr.Requests {
		s := tr.Requests[i].Session
		want[s] = append(want[s], i)
	}
	sess := tr.Sessions()
	if !reflect.DeepEqual(sess, want) {
		t.Fatal("Sessions() differs from grouping by append")
	}
	for id, idxs := range sess {
		if cap(idxs) != len(idxs) {
			t.Fatalf("session %d: cap %d beyond len %d reaches into the next session", id, cap(idxs), len(idxs))
		}
		sess[id] = append(idxs, -1)
	}
	for id, idxs := range sess {
		if got := idxs[:len(idxs)-1]; !reflect.DeepEqual(got, want[id]) {
			t.Fatalf("session %d clobbered by an append to its neighbour: %v, want %v", id, got, want[id])
		}
	}
}

func TestPopularityIsSkewed(t *testing.T) {
	_, tr := smallTrace(t, 5)
	ranking := tr.PopularityRanking()
	counts := make(map[string]int)
	for i := range tr.Requests {
		counts[tr.Requests[i].Path]++
	}
	if len(ranking) < 10 {
		t.Fatalf("too few distinct paths: %d", len(ranking))
	}
	top := counts[ranking[0]]
	median := counts[ranking[len(ranking)/2]]
	if top < 4*median {
		t.Fatalf("popularity not skewed: top=%d median=%d", top, median)
	}
	for i := 1; i < len(ranking); i++ {
		if counts[ranking[i-1]] < counts[ranking[i]] {
			t.Fatal("ranking not sorted by descending count")
		}
	}
}

func TestSplit(t *testing.T) {
	_, tr := smallTrace(t, 9)
	train, eval := tr.Split(0.3)
	if len(train.Requests)+len(eval.Requests) != len(tr.Requests) {
		t.Fatal("split loses requests")
	}
	want := int(0.3 * float64(len(tr.Requests)))
	if len(train.Requests) != want {
		t.Fatalf("train size = %d, want %d", len(train.Requests), want)
	}
	// Clamping.
	tr0, _ := tr.Split(-1)
	if len(tr0.Requests) != 0 {
		t.Fatal("Split(-1) should clamp to empty train")
	}
	_, ev1 := tr.Split(2)
	if len(ev1.Requests) != 0 {
		t.Fatal("Split(2) should clamp to empty eval")
	}
}

func TestStats(t *testing.T) {
	_, tr := smallTrace(t, 11)
	s := tr.Stats()
	if s.Requests != len(tr.Requests) {
		t.Fatal("Stats.Requests mismatch")
	}
	if s.Files != len(tr.Files) {
		t.Fatal("Stats.Files mismatch")
	}
	if s.Sessions <= 0 || s.MeanFileSize <= 0 || s.Duration <= 0 {
		t.Fatalf("degenerate stats: %+v", s)
	}
	if s.EmbeddedFrac <= 0.3 || s.EmbeddedFrac >= 0.95 {
		t.Fatalf("embedded fraction %v outside plausible band", s.EmbeddedFrac)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	_, tr := smallTrace(t, 13)
	// Out of order.
	bad := &Trace{Name: "x", Files: tr.Files, Requests: append([]Request(nil), tr.Requests...)}
	bad.Requests[0].Time = bad.Requests[len(bad.Requests)-1].Time + time.Hour
	if err := bad.Validate(); err == nil {
		t.Fatal("Validate should reject out-of-order requests")
	}
	// Unknown file.
	bad2 := &Trace{Name: "x", Files: tr.Files, Requests: []Request{{Path: "/nope", Size: 1}}}
	if err := bad2.Validate(); err == nil {
		t.Fatal("Validate should reject unknown path")
	}
	// Size mismatch.
	bad3 := &Trace{Name: "x", Files: tr.Files,
		Requests: []Request{{Path: tr.Requests[0].Path, Size: tr.Requests[0].Size + 1}}}
	if err := bad3.Validate(); err == nil {
		t.Fatal("Validate should reject size mismatch")
	}
	// Embedded without parent.
	bad4 := &Trace{Name: "x", Files: tr.Files,
		Requests: []Request{{Path: tr.Requests[0].Path, Size: tr.Requests[0].Size, Embedded: true}}}
	if err := bad4.Validate(); err == nil {
		t.Fatal("Validate should reject embedded request without parent")
	}
}

func TestPresetStatsMatchPaper(t *testing.T) {
	cases := []struct {
		preset    Preset
		scale     float64
		wantFiles int   // paper's file count
		fileTol   int   // tolerance
		wantReqs  int   // paper's request count (scaled)
		meanLowKB int64 // acceptable mean file size band
		meanHiKB  int64
	}{
		{PresetCS, 0.2, 4700, 1200, 5400, 5, 25},
		{PresetWorldCup, 0.01, 3809, 1100, 8974, 3, 20},
		{PresetSynthetic, 0.2, 3000, 900, 6000, 4, 22},
	}
	for _, c := range cases {
		_, tr, err := GeneratePreset(c.preset, c.scale, 1234)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("%v: %v", c.preset, err)
		}
		s := tr.Stats()
		if s.Files < c.wantFiles-c.fileTol || s.Files > c.wantFiles+c.fileTol {
			t.Errorf("%v: files = %d, want %d±%d", c.preset, s.Files, c.wantFiles, c.fileTol)
		}
		if s.Requests < c.wantReqs {
			t.Errorf("%v: requests = %d, want >= %d", c.preset, s.Requests, c.wantReqs)
		}
		meanKB := s.MeanFileSize / 1024
		if meanKB < c.meanLowKB || meanKB > c.meanHiKB {
			t.Errorf("%v: mean file size %d KB outside [%d, %d]", c.preset, meanKB, c.meanLowKB, c.meanHiKB)
		}
	}
}

func TestPresetErrors(t *testing.T) {
	if _, _, err := GeneratePreset(Preset(99), 1, 1); err == nil {
		t.Fatal("unknown preset should error")
	}
	if _, _, err := GeneratePreset(PresetCS, 0, 1); err == nil {
		t.Fatal("zero scale should error")
	}
}

func TestBundlesGroundTruth(t *testing.T) {
	site := smallSite(t, 17)
	b := site.Bundles()
	if len(b) != len(site.Pages) {
		t.Fatalf("bundles = %d, want %d", len(b), len(site.Pages))
	}
	for i := range site.Pages {
		p := &site.Pages[i]
		if len(b[p.Path]) != len(p.Embedded) {
			t.Fatalf("bundle size mismatch for %s", p.Path)
		}
	}
}

func TestTotalFileBytes(t *testing.T) {
	site, tr := smallTrace(t, 19)
	if tr.TotalFileBytes() != site.TotalBytes() {
		t.Fatalf("TotalFileBytes %d != site TotalBytes %d", tr.TotalFileBytes(), site.TotalBytes())
	}
}
