// Package experiment regenerates every table and figure of the paper's
// evaluation (§5): Table 1's parameters, Fig. 6's dispatch frequencies,
// Fig. 7's throughput comparison, Fig. 8's memory sweep, Fig. 9's
// per-enhancement ablation, the 6-16 backend scalability claim, the
// response-time comparison and the 30%-memory hit-rate claim — plus
// ablations over the design choices DESIGN.md calls out.
package experiment

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"time"

	"prord/internal/cluster"
	"prord/internal/mining"
	"prord/internal/policy"
	"prord/internal/randutil"
	"prord/internal/replicate"
	"prord/internal/trace"
)

// Options configures an experiment campaign. A zero field takes its
// DefaultOptions value, except Seed and UseGDSF, whose zero values are
// choices: Options{} runs the defaults at seed 0. So does a float field
// out of its range, NaN and the infinities included.
type Options struct {
	// Scale multiplies each preset's published request count (1.0 = the
	// paper's full trace sizes). Default 0.2 for quick runs.
	Scale float64
	// Seed drives all workload generation.
	Seed int64
	// Backends is the cluster size. Default 8.
	Backends int
	// MemoryFraction is the cluster's aggregate backend memory as a
	// fraction of the site's total data set ("generally, about 30% of
	// the website's data can be accommodated in the backend servers'
	// memory"). Default 0.3.
	MemoryFraction float64
	// LoadFactor compresses trace inter-arrival times to raise offered
	// load; the paper's throughput comparisons presuppose a loaded,
	// disk-bound system. Default 30.
	LoadFactor float64
	// TrainFraction is the prefix of each trace mined offline. Default 0.4.
	TrainFraction float64
	// Mining configures the log miner. Default: mining's defaults with
	// RankDecay 0.9.
	Mining mining.Options
	// UseGDSF switches the demand caches from LRU to GDSF.
	UseGDSF bool
}

// DefaultOptions returns the defaults described on Options.
func DefaultOptions() Options {
	m := mining.DefaultOptions()
	// Trace times are compressed by LoadFactor, so the rank table must
	// decay gently per (shortened) replication interval.
	m.RankDecay = 0.9
	return Options{
		Scale:          0.2,
		Seed:           42,
		Backends:       8,
		MemoryFraction: 0.3,
		LoadFactor:     30,
		TrainFraction:  0.4,
		Mining:         m,
	}
}

func (o Options) withDefaults() Options {
	d := DefaultOptions()
	if !finitePositive(o.Scale) {
		o.Scale = d.Scale
	}
	if o.Backends <= 0 {
		o.Backends = d.Backends
	}
	if !(o.MemoryFraction > 0 && o.MemoryFraction <= 4) {
		o.MemoryFraction = d.MemoryFraction
	}
	if !finitePositive(o.LoadFactor) {
		o.LoadFactor = d.LoadFactor
	}
	if !(o.TrainFraction > 0 && o.TrainFraction < 1) {
		o.TrainFraction = d.TrainFraction
	}
	if o.Mining == (mining.Options{}) {
		o.Mining = d.Mining
	}
	return o
}

// finitePositive reports whether v is a number in (0, +Inf): false for
// NaN, which fails every comparison and so passes a "v <= 0" check.
func finitePositive(v float64) bool { return v > 0 && !math.IsInf(v, 1) }

// Runner executes experiments.
type Runner struct {
	opt Options
	// requests and events tally every replay the runner has made.
	requests int
	events   uint64
}

// NewRunner returns a Runner with opt (unset fields defaulted).
func NewRunner(opt Options) *Runner {
	return &Runner{opt: opt.withDefaults()}
}

// Options returns the effective options.
func (r *Runner) Options() Options { return r.opt }

// Simulated reports how many requests the runner has replayed so far,
// over all its experiments, and how many simulator events that took.
func (r *Runner) Simulated() (requests int, events uint64) { return r.requests, r.events }

// compress divides all request times by factor, raising the offered load.
func compress(tr *trace.Trace, factor float64) {
	if factor <= 1 {
		return
	}
	for i := range tr.Requests {
		tr.Requests[i].Time = time.Duration(float64(tr.Requests[i].Time) / factor)
	}
}

// presetLoadScale normalizes offered load across presets: the WorldCup
// preset's base session rate is already ~6x the others (flash crowd), so
// a uniform compression factor would overload it while leaving the
// department traces unsaturated.
func presetLoadScale(p trace.Preset) float64 {
	switch p {
	case trace.PresetWorldCup:
		return 0.15
	case trace.PresetSynthetic:
		return 1.3
	default:
		return 1.0
	}
}

// params builds cluster parameters for a memory fraction: total memory =
// frac * dataset, split 64/36 between demand and pinned partitions
// (Table 1's 128 MB / 72 MB ratio). Baseline runs (no features) merge the
// two, so every policy sees the same total memory.
func params(datasetBytes int64, backends int, memFraction float64) cluster.Params {
	p := cluster.DefaultParams()
	p.Backends = backends
	total := memFraction * float64(datasetBytes) / float64(backends)
	const floor = 64 << 10
	p.AppMemory = max(int64(total*0.64), floor)
	p.PinnedMemory = max(int64(total*0.36), floor)
	return p
}

// Run describes one simulation cell: a workload and a policy, plus what
// the cell changes from the campaign's options. A zero field keeps the
// campaign's value.
type Run struct {
	Preset   trace.Preset
	Policy   string
	Features cluster.Features
	// Backends and MemoryFraction override the campaign options when > 0.
	Backends       int
	MemoryFraction float64
	// LoadScale multiplies the campaign's LoadFactor when > 0.
	LoadScale float64
	// MiningOrder, PrefetchThreshold and Predictor override the
	// campaign's mining options when set.
	MiningOrder       int
	PrefetchThreshold float64
	Predictor         string
	// Cache, "LRU" or "GDSF", overrides the campaign's UseGDSF when set.
	Cache string
	// DynamicFraction is the share of the site's pages generated per
	// request (uncacheable).
	DynamicFraction float64
	// Distributors is the number of front-end distributors (0 = one).
	Distributors int
	// CrashAt, when > 0, crashes backend 0 at that fraction of the eval
	// trace's requests; RecoverAt, when > 0, brings it back at that
	// fraction.
	CrashAt, RecoverAt float64
}

// options returns the campaign's options with the cell's overrides.
func (r *Runner) options(run Run) Options {
	opt := r.opt
	if run.Backends > 0 {
		opt.Backends = run.Backends
	}
	if run.MemoryFraction > 0 {
		opt.MemoryFraction = run.MemoryFraction
	}
	if run.LoadScale > 0 {
		opt.LoadFactor *= run.LoadScale
	}
	if run.MiningOrder > 0 {
		opt.Mining.Order = run.MiningOrder
	}
	if run.PrefetchThreshold > 0 {
		opt.Mining.PrefetchThreshold = run.PrefetchThreshold
	}
	if run.Predictor != "" {
		opt.Mining.Predictor = run.Predictor
	}
	if run.Cache != "" {
		opt.UseGDSF = run.Cache == "GDSF"
	}
	return opt
}

// outcome is one replayed cell: the cluster's result, the length of the
// eval trace and the number of contexts the mined model started with.
type outcome struct {
	*cluster.Result
	requests int
	contexts int
}

// Execute runs one cell and returns the cluster result.
func (r *Runner) Execute(run Run) (*cluster.Result, error) {
	o, err := r.run(run)
	if err != nil {
		return nil, err
	}
	return o.Result, nil
}

// workload generates a cell's trace from the seed and splits it into
// the training prefix the miner reads and the eval trace the cluster
// replays.
func workload(run Run, opt Options) (train, eval *trace.Trace, err error) {
	sc, tc, err := trace.PresetConfigs(run.Preset, opt.Scale)
	if err != nil {
		return nil, nil, err
	}
	sc.DynamicFraction = run.DynamicFraction
	rng := randutil.New(opt.Seed)
	site, err := trace.GenerateSite(sc, rng)
	if err != nil {
		return nil, nil, err
	}
	full, err := trace.Generate(run.Preset.String(), site, tc, rng)
	if err != nil {
		return nil, nil, err
	}
	compress(full, opt.LoadFactor*presetLoadScale(run.Preset))
	train, eval = full.Split(opt.TrainFraction)
	return train, eval, nil
}

// run is the one path from a cell to a replay. It regenerates the
// workload on every call, so runs never share mutable state (the PRORD
// tracker learns online and would otherwise leak across runs).
func (r *Runner) run(run Run) (*outcome, error) {
	opt := r.options(run)
	train, eval, err := workload(run, opt)
	if err != nil {
		return nil, err
	}
	miner := mining.Mine(train, opt.Mining)
	// Counted before the replay, which teaches the model online.
	contexts := miner.Model.Contexts()
	pol, err := policy.ByName(run.Policy, opt.Backends, policy.Thresholds{})
	if err != nil {
		return nil, err
	}
	// Algorithm 3's period t shrinks with the trace's compressed
	// timescale so replication still runs several rounds per experiment.
	replInterval := max(time.Duration(float64(5*time.Second)/opt.LoadFactor), 100*time.Millisecond)
	cfg := cluster.Config{
		Params:   params(eval.TotalFileBytes(), opt.Backends, opt.MemoryFraction),
		Policy:   pol,
		Features: run.Features,
		Miner:    miner,
		UseGDSF:  opt.UseGDSF,
		// Replicate the hot head only: wide replication of the long tail
		// evicts demand-cached files for no hit-rate return.
		ReplicateConfig:     replicate.Config{T1Fraction: 0.05, MaxFiles: 64},
		ReplicationInterval: replInterval,
		Distributors:        run.Distributors,
	}
	if run.CrashAt > 0 {
		f := cluster.Failure{At: eval.Requests[int(run.CrashAt*float64(len(eval.Requests)))].Time}
		if run.RecoverAt > 0 {
			f.RecoverAt = eval.Requests[int(run.RecoverAt*float64(len(eval.Requests)))].Time
		}
		cfg.Failures = []cluster.Failure{f}
	}
	cl, err := cluster.New(cfg)
	if err != nil {
		return nil, err
	}
	res, err := cl.Run(eval)
	if err != nil {
		return nil, fmt.Errorf("experiment: %s on %s: %w", run.Policy, run.Preset, err)
	}
	r.requests += len(eval.Requests)
	r.events += res.Events
	return &outcome{Result: res, requests: len(eval.Requests), contexts: contexts}, nil
}

// row is a table row: its leading text cells and the cells it runs.
type row struct {
	lead  []string
	cells []Run
}

// col is a table column computed from a row's outcomes, in the order of
// its cells: its header, the key its raw value is recorded under in
// Values, its print format and the value.
type col struct {
	head, key, format string
	value             func(o []*outcome) float64
}

// fill runs each row's cells in order and appends the row to t: its
// leading cells, then one cell per column. The columns' heads extend
// t.Header, and a row's values are keyed by its leading cells joined
// with "/".
func (r *Runner) fill(t *Table, rows []row, cols ...col) (*Table, error) {
	for _, c := range cols {
		t.Header = append(t.Header, c.head)
	}
	for _, rw := range rows {
		outs := make([]*outcome, len(rw.cells))
		for i, run := range rw.cells {
			var err error
			if outs[i], err = r.run(run); err != nil {
				return nil, err
			}
		}
		label := strings.Join(rw.lead, "/")
		cells := slices.Clone(rw.lead)
		for _, c := range cols {
			v := c.value(outs)
			cells = append(cells, fmt.Sprintf(c.format, v))
			t.set(label, c.key, v)
		}
		t.Rows = append(t.Rows, cells)
	}
	return t, nil
}

// at reads metric m off a row's i-th cell.
func at(i int, m func(*outcome) float64) func([]*outcome) float64 {
	return func(o []*outcome) float64 { return m(o[i]) }
}

// The metrics columns read off an outcome.
func throughput(o *outcome) float64 { return o.Throughput }
func hitRate(o *outcome) float64    { return o.HitRate }
func respMs(o *outcome) float64     { return float64(o.MeanResponse) / float64(time.Millisecond) }
func prefetches(o *outcome) float64 { return float64(o.Metrics.Prefetches) }
func accuracy(o *outcome) float64   { return o.Metrics.PrefetchAccuracy() }

// cell is the comparison cell for a policy on a preset: PRORD gets all
// three enhancements, baselines get none.
func cell(p trace.Preset, policyName string) Run {
	run := Run{Preset: p, Policy: policyName}
	if policyName == "PRORD" {
		run.Features = cluster.AllFeatures()
	}
	return run
}

// presets are the three workloads of §5.1 in table order.
func presets() []trace.Preset {
	return []trace.Preset{trace.PresetCS, trace.PresetWorldCup, trace.PresetSynthetic}
}

// experiments is the registry of runnable tables, in the order IDs lists
// them: the paper's §5 (All) first, then the extras (Extras).
var experiments = []struct {
	id    string
	paper bool
	build func(*Runner) (*Table, error)
}{
	{"table1", true, (*Runner).Table1},
	{"fig6", true, (*Runner).Fig6},
	{"fig7", true, (*Runner).Fig7},
	{"fig8", true, (*Runner).Fig8},
	{"fig9", true, (*Runner).Fig9},
	{"scale", true, (*Runner).Scale},
	{"response", true, (*Runner).ResponseTime},
	{"hitrate", true, (*Runner).HitRate},
	{"dynamic", false, (*Runner).Dynamic},
	{"predictors", false, (*Runner).PredictorComparison},
	{"failover", false, (*Runner).Failover},
	{"frontends", false, (*Runner).FrontEnds},
	{"ablation-order", false, (*Runner).AblationOrder},
	{"ablation-threshold", false, (*Runner).AblationThreshold},
	{"ablation-cache", false, (*Runner).AblationCache},
	{"ablation-predictor", false, (*Runner).AblationPredictor},
}

// IDs lists the runnable experiment ids.
func IDs() []string {
	ids := make([]string, len(experiments))
	for i, e := range experiments {
		ids[i] = e.id
	}
	return ids
}

// ByID runs one experiment by its table id.
func (r *Runner) ByID(id string) (*Table, error) {
	for _, e := range experiments {
		if e.id == id {
			return e.build(r)
		}
	}
	return nil, fmt.Errorf("experiment: unknown id %q", id)
}

// All runs every experiment of the paper's evaluation, in paper order.
func (r *Runner) All() ([]*Table, error) { return r.campaign(true) }

// Extras runs every experiment beyond the paper's evaluation.
func (r *Runner) Extras() ([]*Table, error) { return r.campaign(false) }

// campaign runs the registry's paper or extra experiments in order,
// returning the tables made before any error.
func (r *Runner) campaign(paper bool) ([]*Table, error) {
	var out []*Table
	for _, e := range experiments {
		if e.paper != paper {
			continue
		}
		t, err := e.build(r)
		if err != nil {
			return out, fmt.Errorf("experiment %s: %w", e.id, err)
		}
		out = append(out, t)
	}
	return out, nil
}
