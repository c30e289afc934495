package mining

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"prord/internal/trace"
)

// The paper's workflow is offline analysis feeding a live distributor:
// "the extracted information from web log file is made available for the
// distributor at the front-end" (§1). Save/Load serialize a Miner so the
// mining pass can run as a batch job (logmine -o model.json) and the
// front-end (prord-server -model model.json) starts with a warm model.

// minerJSON is the serialized form. Only the default "model" navigation
// predictor round-trips; alternate predictors are retrained from logs.
type minerJSON struct {
	Version int     `json:"version"`
	Options Options `json:"options"`

	Contexts map[string]ctxJSON `json:"contexts"`
	Accessed map[string]int     `json:"accessed"`
	Observed int                `json:"observed"`

	PageViews  map[string]int            `json:"page_views"`
	ObjCounts  map[string]map[string]int `json:"object_counts"`
	RankCounts map[string]float64        `json:"rank_counts"`

	Categorizer *categorizerJSON `json:"categorizer,omitempty"`
}

type ctxJSON struct {
	Total int            `json:"total"`
	Next  map[string]int `json:"next"`
}

type categorizerJSON struct {
	Groups     int                  `json:"groups"`
	PageFreq   []map[string]float64 `json:"page_freq"`
	Prior      []float64            `json:"prior"`
	Vocabulary []string             `json:"vocabulary"`
}

const minerFormatVersion = 1

// Save writes the miner's learned state as JSON.
func (m *Miner) Save(w io.Writer) error {
	out := minerJSON{
		Version:    minerFormatVersion,
		Options:    m.Options,
		Contexts:   make(map[string]ctxJSON, len(m.Model.ctx)),
		Accessed:   m.Model.accessed,
		Observed:   m.Model.observations,
		PageViews:  m.Bundles.pageViews,
		ObjCounts:  m.Bundles.objCounts,
		RankCounts: m.Ranker.counts,
	}
	for key, cs := range m.Model.ctx {
		out.Contexts[key] = ctxJSON{Total: cs.total, Next: cs.next}
	}
	if c := m.Categorizer; c != nil {
		cj := &categorizerJSON{
			Groups:   c.groups,
			PageFreq: c.pageFreq,
			Prior:    c.prior,
		}
		for page := range c.vocabulary {
			cj.Vocabulary = append(cj.Vocabulary, page)
		}
		// Sorted so two Saves of the same miner are byte-identical (maps
		// marshal sorted, but this slice would keep iteration order).
		sort.Strings(cj.Vocabulary)
		out.Categorizer = cj
	}
	enc := json.NewEncoder(w)
	return enc.Encode(&out)
}

// Load reads a miner saved with Save.
func Load(r io.Reader) (*Miner, error) {
	var in minerJSON
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("mining: load: %w", err)
	}
	if in.Version != minerFormatVersion {
		return nil, fmt.Errorf("mining: unsupported model version %d", in.Version)
	}
	opt := in.Options.withDefaults()
	m := &Miner{
		Options: opt,
		Model:   NewModel(opt.Order),
		Bundles: NewBundles(opt.BundleSupport),
		Ranker:  NewRanker(opt.RankDecay),
	}
	for key, cs := range in.Contexts {
		next := cs.Next
		if next == nil {
			next = make(map[string]int)
		}
		m.Model.ctx[key] = &ctxStats{total: cs.Total, next: next}
	}
	if in.Accessed != nil {
		m.Model.accessed = in.Accessed
	}
	m.Model.observations = in.Observed
	if in.PageViews != nil {
		m.Bundles.pageViews = in.PageViews
	}
	if in.ObjCounts != nil {
		m.Bundles.objCounts = in.ObjCounts
	}
	m.Bundles.dirty = true
	if in.RankCounts != nil {
		m.Ranker.counts = in.RankCounts
	}
	if cj := in.Categorizer; cj != nil && cj.Groups > 0 {
		// Classify indexes both tables by group: a short one would
		// panic the first session that reaches category prefetching.
		if len(cj.PageFreq) != cj.Groups || len(cj.Prior) != cj.Groups {
			return nil, fmt.Errorf("mining: categorizer has %d groups but %d page_freq rows and %d priors",
				cj.Groups, len(cj.PageFreq), len(cj.Prior))
		}
		c := &Categorizer{
			groups:     cj.Groups,
			pageFreq:   cj.PageFreq,
			prior:      cj.Prior,
			vocabulary: make(map[string]bool, len(cj.Vocabulary)),
		}
		for _, page := range cj.Vocabulary {
			c.vocabulary[page] = true
		}
		m.Categorizer = c
	}
	// Alternate navigation predictors do not round-trip; the model is
	// always available.
	m.Nav = m.Model
	return m, nil
}

// SaveTrained mines tr and saves the result in one step (the logmine -o
// path).
func SaveTrained(w io.Writer, tr *trace.Trace, opt Options) (*Miner, error) {
	m := Mine(tr, opt)
	if err := m.Save(w); err != nil {
		return nil, err
	}
	return m, nil
}
