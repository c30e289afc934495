package trace

import (
	"fmt"

	"prord/internal/randutil"
)

// Object is an embedded object (image, applet, stylesheet, ...) belonging
// to a main page. The page and its objects form a "bundle" in the paper's
// terminology (§3.2).
type Object struct {
	Path string
	Size int64
}

// Page is one HTML page of a modeled web site.
type Page struct {
	Path     string
	Size     int64
	Group    int      // primary user group this page belongs to
	Links    []int    // indices of pages reachable from this page
	Embedded []Object // objects the page embeds
	// Dynamic marks a generated page (CGI): its response is uncacheable
	// and costs server CPU per request.
	Dynamic bool
}

// Site is a generated web site: pages organized into user-group sections
// with a hyperlink graph, used as ground truth by the trace generator.
// Real sites decompose the same way ("a university website will cater to
// current students, prospective students, faculty..." — §3.1).
type Site struct {
	Pages  []Page
	Groups []string // group names; Page.Group indexes this
}

// SiteConfig controls synthetic site generation.
type SiteConfig struct {
	Pages          int     // number of HTML pages
	Groups         int     // number of user-group sections
	MeanEmbedded   float64 // mean embedded objects per page
	MaxEmbedded    int     // cap on embedded objects per page
	MeanPageKB     float64 // mean page size in KB (Pareto-tailed)
	MaxPageKB      float64 // largest page size in KB
	MeanObjectKB   float64 // mean embedded object size in KB
	MaxObjectKB    float64 // largest object size in KB
	LinksPerPage   int     // out-links per page
	IntraGroupProb float64 // probability a link stays within the group
	PopTheta       float64 // Zipf exponent used to bias link targets
	// DynamicFraction is the fraction of pages generated per request
	// (CGI-style, uncacheable). 0 reproduces the paper's static-only
	// evaluation; the "dynamic" experiment sweeps it (§6 future work).
	DynamicFraction float64
}

// DefaultSiteConfig returns a site shaped like a mid-size department site.
func DefaultSiteConfig() SiteConfig {
	return SiteConfig{
		Pages:          800,
		Groups:         5,
		MeanEmbedded:   4,
		MaxEmbedded:    12,
		MeanPageKB:     10,
		MaxPageKB:      500,
		MeanObjectKB:   8,
		MaxObjectKB:    200,
		LinksPerPage:   6,
		IntraGroupProb: 0.85,
		PopTheta:       0.8,
	}
}

func (c SiteConfig) validate() error {
	if c.Pages <= 0 {
		return fmt.Errorf("trace: SiteConfig.Pages must be positive, got %d", c.Pages)
	}
	if c.Groups <= 0 || c.Groups > c.Pages {
		return fmt.Errorf("trace: SiteConfig.Groups must be in [1, Pages], got %d", c.Groups)
	}
	if c.LinksPerPage <= 0 {
		return fmt.Errorf("trace: SiteConfig.LinksPerPage must be positive, got %d", c.LinksPerPage)
	}
	if c.MeanPageKB <= 0 || c.MeanObjectKB <= 0 {
		return fmt.Errorf("trace: mean sizes must be positive")
	}
	if c.DynamicFraction < 0 || c.DynamicFraction > 1 {
		return fmt.Errorf("trace: DynamicFraction must be in [0,1], got %v", c.DynamicFraction)
	}
	return nil
}

// paretoShape converts a desired mean on [xmin, xmax] into a bounded-Pareto
// draw; we keep a fixed shape and scale xmin so the mean is approximately
// right, which preserves the heavy tail observed in web file sizes.
func sizeDraw(rng *randutil.Source, meanKB, maxKB float64) int64 {
	const alpha = 1.3 // classic web file-size tail index
	// For unbounded Pareto the mean is xmin*alpha/(alpha-1); solve for xmin.
	xmin := meanKB * (alpha - 1) / alpha
	if xmin < 0.1 {
		xmin = 0.1
	}
	if maxKB < xmin {
		maxKB = xmin
	}
	kb := rng.Pareto(alpha, xmin, maxKB)
	b := int64(kb * 1024)
	if b < 64 {
		b = 64
	}
	return b
}

// GenerateSite builds a deterministic synthetic site from cfg and rng.
func GenerateSite(cfg SiteConfig, rng *randutil.Source) (*Site, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	site := &Site{Pages: make([]Page, cfg.Pages)}
	for g := 0; g < cfg.Groups; g++ {
		site.Groups = append(site.Groups, fmt.Sprintf("g%d", g))
	}

	// Assign pages round-robin to groups so every group has pages, then
	// index pages per group for link construction.
	perGroup := make([][]int, cfg.Groups)
	for i := range site.Pages {
		g := i % cfg.Groups
		p := &site.Pages[i]
		p.Group = g
		p.Size = sizeDraw(rng, cfg.MeanPageKB, cfg.MaxPageKB)
		if rng.Float64() < cfg.DynamicFraction {
			p.Dynamic = true
			p.Path = fmt.Sprintf("/%s/p%d.cgi", site.Groups[g], i)
		} else {
			p.Path = fmt.Sprintf("/%s/p%d.html", site.Groups[g], i)
		}
		perGroup[g] = append(perGroup[g], i)
	}

	// Embedded objects.
	for i := range site.Pages {
		p := &site.Pages[i]
		n := int(rng.Exp(cfg.MeanEmbedded))
		if n > cfg.MaxEmbedded {
			n = cfg.MaxEmbedded
		}
		for j := 0; j < n; j++ {
			p.Embedded = append(p.Embedded, Object{
				Path: fmt.Sprintf("/%s/p%d_obj%d.gif", site.Groups[p.Group], i, j),
				Size: sizeDraw(rng, cfg.MeanObjectKB, cfg.MaxObjectKB),
			})
		}
	}

	// Hyperlink graph. Targets are drawn Zipf-biased within the page's own
	// group (popular pages accumulate in-links, yielding a Zipf-like
	// request popularity once sessions walk the graph) and occasionally
	// cross-group.
	zipfPerGroup := make([]*randutil.Zipf, cfg.Groups)
	for g := range zipfPerGroup {
		zipfPerGroup[g] = randutil.NewZipf(rng, len(perGroup[g]), cfg.PopTheta)
	}
	allZipf := randutil.NewZipf(rng, cfg.Pages, cfg.PopTheta)
	for i := range site.Pages {
		p := &site.Pages[i]
		seen := map[int]bool{i: true}
		for len(p.Links) < cfg.LinksPerPage {
			var target int
			if rng.Float64() < cfg.IntraGroupProb {
				g := p.Group
				target = perGroup[g][zipfPerGroup[g].Draw()]
			} else {
				target = allZipf.Draw()
			}
			if seen[target] {
				// Fall back to a uniform draw to guarantee progress on
				// tiny sites where the Zipf head keeps colliding.
				target = rng.Intn(cfg.Pages)
				if seen[target] {
					if len(seen) >= cfg.Pages {
						break // site smaller than requested out-degree
					}
					continue
				}
			}
			seen[target] = true
			p.Links = append(p.Links, target)
		}
	}
	return site, nil
}

// FileTable returns the path -> size table for every page and object.
func (s *Site) FileTable() map[string]int64 {
	files := make(map[string]int64)
	for i := range s.Pages {
		p := &s.Pages[i]
		files[p.Path] = p.Size
		for _, o := range p.Embedded {
			files[o.Path] = o.Size
		}
	}
	return files
}

// NumFiles returns the total number of distinct files (pages + objects).
func (s *Site) NumFiles() int {
	n := len(s.Pages)
	for i := range s.Pages {
		n += len(s.Pages[i].Embedded)
	}
	return n
}

// TotalBytes returns the size of the site's full data set.
func (s *Site) TotalBytes() int64 {
	var total int64
	for i := range s.Pages {
		total += s.Pages[i].Size
		for _, o := range s.Pages[i].Embedded {
			total += o.Size
		}
	}
	return total
}

// Bundles returns the ground-truth bundle map: main page path -> embedded
// object paths. Used to score the miner's bundle detection.
func (s *Site) Bundles() map[string][]string {
	m := make(map[string][]string, len(s.Pages))
	for i := range s.Pages {
		p := &s.Pages[i]
		objs := make([]string, len(p.Embedded))
		for j, o := range p.Embedded {
			objs[j] = o.Path
		}
		m[p.Path] = objs
	}
	return m
}
