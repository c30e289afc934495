package trace

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"prord/internal/randutil"
)

// TraceConfig controls synthetic trace generation over a Site.
type TraceConfig struct {
	// Requests is the approximate total number of requests to generate
	// (generation stops at the first session boundary past this count).
	Requests int
	// SessionRate is the mean number of new sessions (persistent
	// connections) arriving per second, Poisson distributed.
	SessionRate float64
	// MeanPagesPerSession is the mean session length in main pages
	// (geometric).
	MeanPagesPerSession float64
	// MeanThinkTime is the mean pause between a page (and its embedded
	// objects) completing and the next page request on the session.
	MeanThinkTime time.Duration
	// EmbeddedGap is the mean gap between consecutive embedded-object
	// requests issued by the browser after a main page. The paper notes
	// "the interval between request and following request is short".
	EmbeddedGap time.Duration
	// Determinism is the probability a session follows its group's
	// dominant link from the current page rather than picking uniformly
	// among all links; it controls how predictable navigation is.
	Determinism float64
	// Clients is the size of the client host population.
	Clients int
	// GroupWeights optionally biases how often each user group occurs; if
	// nil, groups are equally likely. Length must equal len(site.Groups).
	GroupWeights []float64
}

// DefaultTraceConfig returns a workable default matched to the paper's
// synthetic trace scale (30,000 requests).
func DefaultTraceConfig() TraceConfig {
	return TraceConfig{
		Requests:            30000,
		SessionRate:         20,
		MeanPagesPerSession: 8,
		MeanThinkTime:       2 * time.Second,
		EmbeddedGap:         30 * time.Millisecond,
		Determinism:         0.65,
		Clients:             400,
	}
}

// maxRequests caps a generated trace's request count: over a thousand
// times the paper's largest trace (WorldCup-98's 897,498). A larger
// count is an overflowed scale, not a workload, and Generate sizes its
// request slice from it in one allocation.
const maxRequests = 1 << 30

func (c TraceConfig) validate(site *Site) error {
	if c.Requests <= 0 || c.Requests > maxRequests {
		return fmt.Errorf("trace: TraceConfig.Requests must be in [1, %d], got %d", maxRequests, c.Requests)
	}
	if !(c.SessionRate > 0) || math.IsInf(c.SessionRate, 1) {
		return fmt.Errorf("trace: TraceConfig.SessionRate must be positive and finite")
	}
	if !(c.MeanPagesPerSession >= 1) || math.IsInf(c.MeanPagesPerSession, 1) {
		return fmt.Errorf("trace: TraceConfig.MeanPagesPerSession must be >= 1 and finite")
	}
	if !(c.Determinism >= 0 && c.Determinism <= 1) {
		return fmt.Errorf("trace: TraceConfig.Determinism must be in [0,1]")
	}
	if c.Clients <= 0 {
		return fmt.Errorf("trace: TraceConfig.Clients must be positive")
	}
	if c.GroupWeights != nil && len(c.GroupWeights) != len(site.Groups) {
		return fmt.Errorf("trace: GroupWeights length %d != groups %d", len(c.GroupWeights), len(site.Groups))
	}
	return nil
}

// Generate synthesizes a trace by simulating user sessions walking the
// site graph. Sessions arrive as a Poisson process; each session belongs
// to a user group, starts at one of the group's entry pages and performs a
// mostly-deterministic walk (per Determinism) over the hyperlink graph,
// requesting each page followed by its embedded objects.
func Generate(name string, site *Site, cfg TraceConfig, rng *randutil.Source) (*Trace, error) {
	if err := cfg.validate(site); err != nil {
		return nil, err
	}
	// Entry pages per group: the first (most popular by construction)
	// pages of each group's section. bundle is the longest page plus
	// its objects, the most one page view adds to the trace.
	entries := make([][]int, len(site.Groups))
	bundle := 0
	for i := range site.Pages {
		g := site.Pages[i].Group
		if len(entries[g]) < 3 {
			entries[g] = append(entries[g], i)
		}
		bundle = max(bundle, 1+len(site.Pages[i].Embedded))
	}
	// Generation stops at the first session boundary past cfg.Requests,
	// so the last session overshoots it. The room left for that session
	// is eight mean sessions' pages, each with the longest bundle, and
	// never more than the trace itself. A session runs past 8*mean pages
	// with probability (1-1/mean)^(8*mean), under 1 in 2,900; a last
	// session longer than the room grows the slice once.
	room := cfg.Requests
	if r := float64(bundle) * math.Ceil(8*cfg.MeanPagesPerSession); r < float64(room) {
		room = int(r)
	}
	t := &Trace{Name: name, Files: site.FileTable(), Requests: make([]Request, 0, cfg.Requests+room)}

	weights := cfg.GroupWeights
	if weights == nil {
		weights = make([]float64, len(site.Groups))
		for i := range weights {
			weights[i] = 1
		}
	}

	var now time.Duration // session arrival clock
	session := 0
	// clients holds one host name per client drawn so far, shared by all
	// of its sessions' requests.
	clients := make(map[int]string)
	for len(t.Requests) < cfg.Requests {
		now += time.Duration(rng.Exp(float64(time.Second) / cfg.SessionRate))
		g := rng.WeightedChoice(weights)
		c := rng.Intn(cfg.Clients)
		client, ok := clients[c]
		if !ok {
			client = "c" + strconv.Itoa(c)
			clients[c] = client
		}
		genSession(t, site, cfg, rng, session, client, entries[g], now)
		session++
	}
	t.SortByTime()
	return t, nil
}

// genSession appends the requests of one session starting at time start.
func genSession(t *Trace, site *Site, cfg TraceConfig, rng *randutil.Source,
	session int, client string, entry []int, start time.Duration) {

	pages := 1
	for rng.Float64() < 1-1/cfg.MeanPagesPerSession {
		pages++
	}
	prev := -1
	cur := entry[rng.Intn(len(entry))]
	now := start
	for p := 0; p < pages; p++ {
		page := &site.Pages[cur]
		t.Requests = append(t.Requests, Request{
			Time: now, Session: session, Client: client,
			Path: page.Path, Size: page.Size,
			Dynamic: page.Dynamic,
		})
		for _, o := range page.Embedded {
			now += time.Duration(rng.Exp(float64(cfg.EmbeddedGap)))
			t.Requests = append(t.Requests, Request{
				Time: now, Session: session, Client: client,
				Path: o.Path, Size: o.Size,
				Embedded: true, Parent: page.Path,
			})
		}
		if len(page.Links) == 0 {
			break
		}
		// The dominant link depends on how the page was reached (Fig. 3's
		// premise: where a user goes from page D depends on whether they
		// came via A or via B); otherwise a uniform choice.
		next := cur
		if rng.Float64() < cfg.Determinism {
			next = page.Links[dominantLink(prev, cur, len(page.Links))]
		} else {
			next = page.Links[rng.Intn(len(page.Links))]
		}
		prev, cur = cur, next
		now += time.Duration(rng.Exp(float64(cfg.MeanThinkTime)))
	}
}

// dominantLink picks the deterministic preferred out-link for the
// (previous page, current page) pair.
func dominantLink(prev, cur, nLinks int) int {
	// A small integer hash; any fixed mixing works, it just has to
	// depend on both hops.
	h := uint64(prev+1)*0x9E3779B97F4A7C15 + uint64(cur+1)*0xBF58476D1CE4E5B9
	h ^= h >> 31
	return int(h % uint64(nLinks))
}

// Preset identifies one of the workloads from the paper's evaluation.
type Preset int

const (
	// PresetCS mirrors the Texas A&M CS department trace: 27,000 requests
	// over 4,700 files averaging 12 KB.
	PresetCS Preset = iota
	// PresetWorldCup mirrors the Soccer World Cup 1998 trace: 897,498
	// requests over 3,809 files. Scale it down with the scale argument
	// for quick runs.
	PresetWorldCup
	// PresetSynthetic mirrors the paper's synthetic trace: 30,000
	// requests over 3,000 files averaging 10 KB.
	PresetSynthetic
)

// String returns the preset's display name used in tables.
func (p Preset) String() string {
	switch p {
	case PresetCS:
		return "CS-Trace"
	case PresetWorldCup:
		return "WorldCup98"
	case PresetSynthetic:
		return "Synthetic"
	default:
		return fmt.Sprintf("Preset(%d)", int(p))
	}
}

// ParsePreset parses a preset's command-line name ("cs", "worldcup" or
// "synthetic"), ignoring case and surrounding space.
func ParsePreset(s string) (Preset, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "cs":
		return PresetCS, nil
	case "worldcup":
		return PresetWorldCup, nil
	case "synthetic":
		return PresetSynthetic, nil
	default:
		return 0, fmt.Errorf("trace: unknown preset %q (want cs, worldcup or synthetic)", s)
	}
}

// PresetConfigs returns the site and trace configuration for a preset,
// scaled by scale (1.0 = the paper's published request count; smaller
// values shrink the request count proportionally while keeping the file
// population intact).
func PresetConfigs(p Preset, scale float64) (SiteConfig, TraceConfig, error) {
	if !(scale > 0) || math.IsInf(scale, 1) {
		return SiteConfig{}, TraceConfig{}, fmt.Errorf("trace: scale must be positive and finite, got %v", scale)
	}
	var published float64 // the paper's request count, at scale 1
	sc := DefaultSiteConfig()
	tc := DefaultTraceConfig()
	switch p {
	case PresetCS:
		// 4,700 files, ~4 objects/page -> ~940 pages; 27,000 requests,
		// mean file size 12 KB.
		sc.Pages = 940
		sc.Groups = 5 // students, prospective, faculty, staff, other
		sc.MeanEmbedded = 4
		sc.MeanPageKB = 14
		sc.MeanObjectKB = 10
		published = 27000
		tc.SessionRate = 15
	case PresetWorldCup:
		// 3,809 files; flash-crowd traffic: few groups, shallow site,
		// very hot head. 897,498 requests at scale 1.
		sc.Pages = 950
		sc.Groups = 3
		sc.MeanEmbedded = 3
		sc.MeanPageKB = 8
		sc.MeanObjectKB = 6
		sc.PopTheta = 1.1
		published = 897498
		tc.SessionRate = 120
		tc.MeanThinkTime = time.Second
		// Flash-crowd visits are short and concentrated: check the score
		// page, maybe one more, leave.
		tc.MeanPagesPerSession = 4
		tc.Determinism = 0.75
	case PresetSynthetic:
		// 3,000 files, 30,000 requests, 10 KB mean.
		sc.Pages = 600
		sc.Groups = 4
		sc.MeanEmbedded = 4
		sc.MeanPageKB = 12
		sc.MeanObjectKB = 9
		published = 30000
		tc.SessionRate = 25
	default:
		return SiteConfig{}, TraceConfig{}, fmt.Errorf("trace: unknown preset %d", int(p))
	}
	n := published * scale
	if n > maxRequests {
		return SiteConfig{}, TraceConfig{}, fmt.Errorf("trace: scale %v asks for %.4g requests, more than %d", scale, n, maxRequests)
	}
	tc.Requests = max(int(n), 100)
	return sc, tc, nil
}

// GeneratePreset builds the site and trace for one of the paper's
// workloads at the given scale, from a single seed.
func GeneratePreset(p Preset, scale float64, seed int64) (*Site, *Trace, error) {
	sc, tc, err := PresetConfigs(p, scale)
	if err != nil {
		return nil, nil, err
	}
	rng := randutil.New(seed)
	site, err := GenerateSite(sc, rng)
	if err != nil {
		return nil, nil, err
	}
	tr, err := Generate(p.String(), site, tc, rng)
	if err != nil {
		return nil, nil, err
	}
	return site, tr, nil
}
