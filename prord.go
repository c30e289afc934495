package prord

import (
	"io"
	"time"

	"prord/internal/cluster"
	"prord/internal/experiment"
	"prord/internal/mining"
	"prord/internal/policy"
	"prord/internal/trace"
)

// Options configures experiment campaigns and comparisons. The zero value
// selects sensible defaults (see DefaultOptions).
type Options struct {
	// Scale multiplies each workload's published request count
	// (1.0 = the paper's trace sizes). Default 0.2.
	Scale float64
	// Seed drives all workload generation; equal seeds reproduce results
	// bit-for-bit. Default 42.
	Seed int64
	// Backends is the cluster size. Default 8.
	Backends int
	// MemoryFraction is the cluster's aggregate backend memory as a
	// fraction of the site's data set. Default 0.3 (§5.2's "about 30%").
	MemoryFraction float64
	// LoadFactor compresses trace inter-arrival times to raise offered
	// load. Default 30.
	LoadFactor float64
	// UseGDSF selects GDSF demand caches instead of LRU.
	UseGDSF bool
	// MiningOrder is the dependency-graph order (default 2).
	MiningOrder int
	// PrefetchThreshold is Algorithm 2's confidence threshold
	// (default 0.4).
	PrefetchThreshold float64
}

// DefaultOptions returns the defaults documented on Options.
func DefaultOptions() Options {
	o := experiment.DefaultOptions()
	return Options{
		Scale:             o.Scale,
		Seed:              o.Seed,
		Backends:          o.Backends,
		MemoryFraction:    o.MemoryFraction,
		LoadFactor:        o.LoadFactor,
		MiningOrder:       o.Mining.Order,
		PrefetchThreshold: o.Mining.PrefetchThreshold,
	}
}

// toInternal converts facade options to the experiment runner's options.
func (o Options) toInternal() experiment.Options {
	opt := experiment.DefaultOptions()
	if o.Scale > 0 {
		opt.Scale = o.Scale
	}
	if o.Seed != 0 {
		opt.Seed = o.Seed
	}
	if o.Backends > 0 {
		opt.Backends = o.Backends
	}
	if o.MemoryFraction > 0 {
		opt.MemoryFraction = o.MemoryFraction
	}
	if o.LoadFactor > 0 {
		opt.LoadFactor = o.LoadFactor
	}
	if o.MiningOrder > 0 {
		opt.Mining.Order = o.MiningOrder
	}
	if o.PrefetchThreshold > 0 {
		opt.Mining.PrefetchThreshold = o.PrefetchThreshold
	}
	opt.UseGDSF = o.UseGDSF
	return opt
}

// Report is one regenerated paper table or figure.
type Report struct {
	// ID is the paper artifact ("table1", "fig6"..."fig9", "scale",
	// "response", "hitrate", or an ablation id).
	ID string
	// Title is the table caption.
	Title string
	// Header and Rows are the formatted cells.
	Header []string
	Rows   [][]string
	// Values holds the raw numbers keyed [row][column].
	Values map[string]map[string]float64
	// Notes are caveats printed under the table.
	Notes []string
}

func toReport(t *experiment.Table) *Report {
	return &Report{
		ID:     t.ID,
		Title:  t.Title,
		Header: t.Header,
		Rows:   t.Rows,
		Values: t.Values,
		Notes:  t.Notes,
	}
}

// WriteTo renders the report as an aligned text table.
func (r *Report) WriteTo(w io.Writer) (int64, error) {
	t := &experiment.Table{ID: r.ID, Title: r.Title, Header: r.Header,
		Rows: r.Rows, Values: r.Values, Notes: r.Notes}
	return t.WriteTo(w)
}

// String renders the report as text.
func (r *Report) String() string {
	t := &experiment.Table{ID: r.ID, Title: r.Title, Header: r.Header,
		Rows: r.Rows, Values: r.Values, Notes: r.Notes}
	return t.String()
}

// Experiments lists the runnable experiment ids in paper order.
func Experiments() []string { return experiment.IDs() }

// RunExperiment regenerates one paper table or figure.
func RunExperiment(id string, opt Options) (*Report, error) {
	t, err := experiment.NewRunner(opt.toInternal()).ByID(id)
	if err != nil {
		return nil, err
	}
	return toReport(t), nil
}

// RunAll regenerates every paper table and figure in order.
func RunAll(opt Options) ([]*Report, error) {
	tables, err := experiment.NewRunner(opt.toInternal()).All()
	reports := make([]*Report, 0, len(tables))
	for _, t := range tables {
		reports = append(reports, toReport(t))
	}
	return reports, err
}

// Workloads lists the built-in workload names (the paper's three traces).
func Workloads() []string {
	return []string{"cs", "worldcup", "synthetic"}
}

// Policies lists the available distribution-policy names.
func Policies() []string { return policy.Names() }

// PolicySummary is one row of a Compare run.
type PolicySummary struct {
	Policy       string
	Throughput   float64 // requests per second
	MeanResponse time.Duration
	HitRate      float64
	Dispatches   int64
	Handoffs     int64
	Prefetches   int64
	Replications int64
}

// Compare simulates the named policies on one workload and returns a
// summary per policy. PRORD runs with all three enhancements; the other
// policies run bare.
func Compare(workload string, policies []string, opt Options) ([]PolicySummary, error) {
	preset, err := trace.ParsePreset(workload)
	if err != nil {
		return nil, err
	}
	if len(policies) == 0 {
		policies = []string{"WRR", "LARD", "Ext-LARD-PHTTP", "PRORD"}
	}
	runner := experiment.NewRunner(opt.toInternal())
	out := make([]PolicySummary, 0, len(policies))
	for _, pol := range policies {
		feats := cluster.Features{}
		if pol == "PRORD" {
			feats = cluster.AllFeatures()
		}
		res, err := runner.Execute(experiment.Run{Preset: preset, Policy: pol, Features: feats})
		if err != nil {
			return out, err
		}
		out = append(out, PolicySummary{
			Policy:       pol,
			Throughput:   res.Throughput,
			MeanResponse: res.MeanResponse,
			HitRate:      res.HitRate,
			Dispatches:   res.Metrics.Dispatches,
			Handoffs:     res.Metrics.Handoffs,
			Prefetches:   res.Metrics.Prefetches,
			Replications: res.Metrics.Replications,
		})
	}
	return out, nil
}

// WriteSyntheticTrace writes a Common Log Format trace statistically
// matched to one of the paper's workloads. It returns the number of
// requests written.
func WriteSyntheticTrace(w io.Writer, workload string, scale float64, seed int64) (int, error) {
	preset, err := trace.ParsePreset(workload)
	if err != nil {
		return 0, err
	}
	_, tr, err := trace.GeneratePreset(preset, scale, seed)
	if err != nil {
		return 0, err
	}
	if err := trace.WriteCLF(w, tr); err != nil {
		return 0, err
	}
	return len(tr.Requests), nil
}

// MiningSummary is the outcome of mining an access log.
type MiningSummary struct {
	// Requests and Files describe the parsed trace.
	Requests int
	Files    int
	Sessions int
	// Contexts is the number of navigation contexts stored (memory cost).
	Contexts int
	// Transitions is the number of observed page transitions.
	Transitions int
	// BundledPages is the number of pages with a mined embedded-object
	// bundle.
	BundledPages int
	// Skipped is the number of malformed log lines the parser dropped;
	// a high ratio of Skipped to Requests means the mined model was
	// built from a fraction of the actual traffic.
	Skipped int
	// TopFiles is the popularity head, most requested first.
	TopFiles []string
	// Bundles maps each bundled page to its mined embedded objects.
	Bundles map[string][]string
}

// SkipRatio is the fraction of input lines the parser dropped as
// malformed, out of the lines that produced requests plus the dropped
// ones. Zero for a clean log.
func (s *MiningSummary) SkipRatio() float64 {
	if s.Skipped == 0 {
		return 0
	}
	return float64(s.Skipped) / float64(s.Requests+s.Skipped)
}

// WorkloadAnalysis characterizes a trace the way trace-study papers do.
type WorkloadAnalysis struct {
	Requests            int
	Files               int
	Sessions            int
	MeanFileSizeKB      int64
	ZipfTheta           float64 // fitted popularity exponent
	ZipfR2              float64
	TopDecileShare      float64 // request share of the hottest 10% of files
	MeanPagesPerSession float64
	EmbeddedFrac        float64
	DynamicFrac         float64
}

// AnalyzeLog sessionizes a Common Log Format stream and reports its
// workload characterization (popularity skew, session structure).
func AnalyzeLog(r io.Reader) (*WorkloadAnalysis, error) {
	tr, err := trace.ReadCLF("log", r, trace.DefaultSessionizeOptions())
	if err != nil {
		return nil, err
	}
	a := trace.Analyze(tr)
	return &WorkloadAnalysis{
		Requests:            a.Stats.Requests,
		Files:               a.Stats.Files,
		Sessions:            a.Stats.Sessions,
		MeanFileSizeKB:      a.Stats.MeanFileSize >> 10,
		ZipfTheta:           a.ZipfTheta,
		ZipfR2:              a.ZipfR2,
		TopDecileShare:      a.TopDecileShare,
		MeanPagesPerSession: a.MeanPagesPerSession,
		EmbeddedFrac:        a.Stats.EmbeddedFrac,
		DynamicFrac:         a.DynamicFrac,
	}, nil
}

// SaveModel mines a Common Log Format stream and writes the learned
// model as JSON — the paper's offline-analysis artifact, loadable by the
// live distributor (prord-server -model).
func SaveModel(w io.Writer, logStream io.Reader, order int) error {
	tr, err := trace.ReadCLF("log", logStream, trace.DefaultSessionizeOptions())
	if err != nil {
		return err
	}
	opt := mining.DefaultOptions()
	if order > 0 {
		opt.Order = order
	}
	_, err = mining.SaveTrained(w, tr, opt)
	return err
}

// MineLog sessionizes a Common Log Format stream and runs the full
// web-log mining pass over it (navigation model, bundles, popularity).
func MineLog(r io.Reader, order int) (*MiningSummary, error) {
	tr, skipped, err := trace.ReadCLFSkipped("log", r, trace.DefaultSessionizeOptions())
	if err != nil {
		return nil, err
	}
	opt := mining.DefaultOptions()
	if order > 0 {
		opt.Order = order
	}
	m := mining.Mine(tr, opt)
	stats := tr.Stats()
	sum := &MiningSummary{
		Requests:     stats.Requests,
		Files:        stats.Files,
		Sessions:     stats.Sessions,
		Contexts:     m.Model.Contexts(),
		Transitions:  m.Model.Observations(),
		BundledPages: len(m.Bundles.Pages()),
		Skipped:      skipped,
		TopFiles:     m.Ranker.Top(20),
		Bundles:      make(map[string][]string),
	}
	for _, page := range m.Bundles.Pages() {
		sum.Bundles[page] = m.Bundles.Objects(page)
	}
	return sum, nil
}
