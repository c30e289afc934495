// Package experiment regenerates every table and figure of the paper's
// evaluation (§5): Table 1's parameters, Fig. 6's dispatch frequencies,
// Fig. 7's throughput comparison, Fig. 8's memory sweep, Fig. 9's
// per-enhancement ablation, the 6-16 backend scalability claim, the
// response-time comparison and the 30%-memory hit-rate claim — plus
// ablations over the design choices DESIGN.md calls out.
package experiment

import (
	"fmt"
	"time"

	"prord/internal/cluster"
	"prord/internal/mining"
	"prord/internal/policy"
	"prord/internal/replicate"
	"prord/internal/trace"
)

// Options configures an experiment campaign. The zero value is NOT usable;
// call DefaultOptions and override.
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
	// Mining configures the log miner.
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
	if o.Scale <= 0 {
		o.Scale = d.Scale
	}
	if o.Backends <= 0 {
		o.Backends = d.Backends
	}
	if o.MemoryFraction <= 0 || o.MemoryFraction > 4 {
		o.MemoryFraction = d.MemoryFraction
	}
	if o.LoadFactor <= 0 {
		o.LoadFactor = d.LoadFactor
	}
	if o.TrainFraction <= 0 || o.TrainFraction >= 1 {
		o.TrainFraction = d.TrainFraction
	}
	return o
}

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

// replay runs tr through cl, adding the run to the runner's tally.
func (r *Runner) replay(cl *cluster.Cluster, tr *trace.Trace) (*cluster.Result, error) {
	res, err := cl.Run(tr)
	if err == nil {
		r.requests += len(tr.Requests)
		r.events += res.Events
	}
	return res, err
}

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

// workload builds the evaluation trace and the miner for a preset. Every
// call regenerates from the seed, so runs never share mutable state (the
// PRORD tracker learns online and would otherwise leak across runs).
func (r *Runner) workload(p trace.Preset) (*trace.Trace, *mining.Miner, error) {
	_, full, err := trace.GeneratePreset(p, r.opt.Scale, r.opt.Seed)
	if err != nil {
		return nil, nil, err
	}
	compress(full, r.opt.LoadFactor*presetLoadScale(p))
	train, eval := full.Split(r.opt.TrainFraction)
	miner := mining.Mine(train, r.opt.Mining)
	return eval, miner, nil
}

// params builds cluster parameters for a memory fraction: total memory =
// frac * dataset, split 64/36 between demand and pinned partitions
// (Table 1's 128 MB / 72 MB ratio). Baseline runs (no features) merge the
// two, so every policy sees the same total memory.
func (r *Runner) params(datasetBytes int64, backends int, memFraction float64) cluster.Params {
	p := cluster.DefaultParams()
	p.Backends = backends
	total := memFraction * float64(datasetBytes) / float64(backends)
	app := int64(total * 0.64)
	pin := int64(total * 0.36)
	const floor = 64 << 10
	if app < floor {
		app = floor
	}
	if pin < floor {
		pin = floor
	}
	p.AppMemory = app
	p.PinnedMemory = pin
	return p
}

// Run describes one simulation cell.
type Run struct {
	Preset   trace.Preset
	Policy   string
	Features cluster.Features
	// Backends and MemoryFraction override the campaign options when > 0.
	Backends       int
	MemoryFraction float64
}

// Execute runs one cell and returns the cluster result.
func (r *Runner) Execute(run Run) (*cluster.Result, error) {
	eval, miner, err := r.workload(run.Preset)
	if err != nil {
		return nil, err
	}
	backends := run.Backends
	if backends <= 0 {
		backends = r.opt.Backends
	}
	memFrac := run.MemoryFraction
	if memFrac <= 0 {
		memFrac = r.opt.MemoryFraction
	}
	pol, err := policy.ByName(run.Policy, backends, policy.Thresholds{})
	if err != nil {
		return nil, err
	}
	// Algorithm 3's period t shrinks with the trace's compressed
	// timescale so replication still runs several rounds per experiment.
	replInterval := time.Duration(float64(5*time.Second) / r.opt.LoadFactor)
	if replInterval < 100*time.Millisecond {
		replInterval = 100 * time.Millisecond
	}
	cl, err := cluster.New(cluster.Config{
		Params:   r.params(eval.TotalFileBytes(), backends, memFrac),
		Policy:   pol,
		Features: run.Features,
		Miner:    miner,
		UseGDSF:  r.opt.UseGDSF,
		// Replicate the hot head only: wide replication of the long tail
		// evicts demand-cached files for no hit-rate return.
		ReplicateConfig:     replicate.Config{T1Fraction: 0.05, MaxFiles: 64},
		ReplicationInterval: replInterval,
	})
	if err != nil {
		return nil, err
	}
	res, err := r.replay(cl, eval)
	if err != nil {
		return nil, fmt.Errorf("experiment: %s on %s: %w", run.Policy, run.Preset, err)
	}
	return res, nil
}

// featuresFor returns the feature set a named comparison row uses: PRORD
// gets all three enhancements, baselines get none.
func featuresFor(policyName string) cluster.Features {
	if policyName == "PRORD" {
		return cluster.AllFeatures()
	}
	return cluster.Features{}
}

// presets are the three workloads of §5.1 in table order.
func presets() []trace.Preset {
	return []trace.Preset{trace.PresetCS, trace.PresetWorldCup, trace.PresetSynthetic}
}
