package mining

import (
	"sort"
	"strings"

	"prord/internal/trace"
)

// Rule is one association rule X -> y over pages visited together in a
// session ([23, 24]; the approach [20] builds web prefetching on).
type Rule struct {
	// Antecedent is the sorted page set that triggers the rule (1 or 2
	// pages here; higher orders explode combinatorially, §2.2.3).
	Antecedent []string
	// Consequent is the predicted co-visited page.
	Consequent string
	// Support is the fraction of sessions containing Antecedent ∪ {y}.
	Support float64
	// Confidence is support(X ∪ {y}) / support(X).
	Confidence float64
}

// Assoc is an association-rule predictor: Apriori over session page-sets
// with 1- and 2-item antecedents. Unlike the sequence-based models (DG,
// the n-order Model), association rules ignore order within the visit —
// the weakness [21] demonstrates and that PredictorComparison measures.
type Assoc struct {
	minSupport int // absolute session count
	maxRules   int

	sessions int
	// rules indexed by antecedent key for prediction.
	byAntecedent map[string][]Rule
	ruleCount    int
}

// NewAssoc returns an association-rule miner. minSupport is the minimum
// number of sessions an itemset must appear in (default 3 when < 1);
// maxRules caps the stored rules (default 100000 when <= 0).
func NewAssoc(minSupport int) *Assoc {
	if minSupport < 1 {
		minSupport = 3
	}
	return &Assoc{
		minSupport:   minSupport,
		maxRules:     100000,
		byAntecedent: make(map[string][]Rule),
	}
}

// Sessions returns the number of training transactions.
func (a *Assoc) Sessions() int { return a.sessions }

const assocSep = "\x00"

// Train implements Predictor: it runs Apriori over the trace's sessions
// (each session's distinct main pages form one transaction) and derives
// rules with 1- and 2-page antecedents.
func (a *Assoc) Train(tr *trace.Trace) {
	// Build transactions deterministically, in ascending session id.
	var transactions [][]string
	for _, s := range tr.Sessions() {
		seen := make(map[string]bool)
		var tx []string
		for _, idx := range s.Reqs {
			r := &tr.Requests[idx]
			if r.Embedded || seen[r.Path] {
				continue
			}
			seen[r.Path] = true
			tx = append(tx, r.Path)
		}
		if len(tx) > 0 {
			sort.Strings(tx)
			transactions = append(transactions, tx)
		}
	}
	a.sessions += len(transactions)

	// L1: frequent single pages.
	count1 := make(map[string]int)
	for _, tx := range transactions {
		for _, p := range tx {
			count1[p]++
		}
	}
	frequent1 := make(map[string]bool)
	for p, c := range count1 {
		if c >= a.minSupport {
			frequent1[p] = true
		}
	}

	// L2: frequent pairs (both members must be in L1 — the Apriori
	// pruning property).
	count2 := make(map[string]int)
	for _, tx := range transactions {
		var freq []string
		for _, p := range tx {
			if frequent1[p] {
				freq = append(freq, p)
			}
		}
		for i := 0; i < len(freq); i++ {
			for j := i + 1; j < len(freq); j++ {
				count2[freq[i]+assocSep+freq[j]]++
			}
		}
	}
	frequent2 := make(map[string]int)
	for pair, c := range count2 {
		if c >= a.minSupport {
			frequent2[pair] = c
		}
	}

	// L3: frequent triples among L2 members (candidate generation by
	// joining L2 pairs sharing a prefix, then support counting).
	count3 := make(map[string]int)
	for _, tx := range transactions {
		var freq []string
		for _, p := range tx {
			if frequent1[p] {
				freq = append(freq, p)
			}
		}
		for i := 0; i < len(freq); i++ {
			for j := i + 1; j < len(freq); j++ {
				if _, ok := frequent2[freq[i]+assocSep+freq[j]]; !ok {
					continue
				}
				for k := j + 1; k < len(freq); k++ {
					if _, ok := frequent2[freq[j]+assocSep+freq[k]]; !ok {
						continue
					}
					if _, ok := frequent2[freq[i]+assocSep+freq[k]]; !ok {
						continue
					}
					count3[freq[i]+assocSep+freq[j]+assocSep+freq[k]]++
				}
			}
		}
	}

	n := float64(a.sessions)
	add := func(antecedent []string, consequent string, joint, antCount int) {
		if a.ruleCount >= a.maxRules {
			return
		}
		r := Rule{
			Antecedent: antecedent,
			Consequent: consequent,
			Support:    float64(joint) / n,
			Confidence: float64(joint) / float64(antCount),
		}
		key := strings.Join(antecedent, assocSep)
		a.byAntecedent[key] = append(a.byAntecedent[key], r)
		a.ruleCount++
	}

	// Rules {a} -> b from L2.
	for pair, joint := range frequent2 {
		ab := strings.SplitN(pair, assocSep, 2)
		add([]string{ab[0]}, ab[1], joint, count1[ab[0]])
		add([]string{ab[1]}, ab[0], joint, count1[ab[1]])
	}
	// Rules {a, b} -> c from L3.
	for triple, joint := range count3 {
		if joint < a.minSupport {
			continue
		}
		abc := strings.SplitN(triple, assocSep, 3)
		add([]string{abc[0], abc[1]}, abc[2], joint, frequent2[abc[0]+assocSep+abc[1]])
		add([]string{abc[0], abc[2]}, abc[1], joint, frequent2[abc[0]+assocSep+abc[2]])
		add([]string{abc[1], abc[2]}, abc[0], joint, frequent2[abc[1]+assocSep+abc[2]])
	}

	// Deterministic rule order per antecedent: by descending confidence,
	// then support, then consequent.
	for key := range a.byAntecedent {
		rs := a.byAntecedent[key]
		sort.Slice(rs, func(i, j int) bool {
			if rs[i].Confidence != rs[j].Confidence {
				return rs[i].Confidence > rs[j].Confidence
			}
			if rs[i].Support != rs[j].Support {
				return rs[i].Support > rs[j].Support
			}
			return rs[i].Consequent < rs[j].Consequent
		})
	}
}

// Predict implements Predictor: it fires the highest-confidence rule
// whose antecedent is contained in the recent page window, preferring
// 2-page antecedents (more specific) over 1-page ones. Pages already in
// the window are not re-predicted.
func (a *Assoc) Predict(recent []string) (Prediction, bool) {
	if len(recent) == 0 {
		return Prediction{}, false
	}
	inWindow := make(map[string]bool, len(recent))
	for _, p := range recent {
		inWindow[p] = true
	}
	window := make([]string, 0, len(inWindow))
	for p := range inWindow {
		window = append(window, p)
	}
	sort.Strings(window)

	best := Prediction{}
	found := false
	consider := func(key string, order int) {
		for _, r := range a.byAntecedent[key] {
			if inWindow[r.Consequent] {
				continue
			}
			if !found || order > best.Order ||
				(order == best.Order && r.Confidence > best.Confidence) ||
				(order == best.Order && r.Confidence == best.Confidence && r.Consequent < best.Page) {
				best = Prediction{Page: r.Consequent, Confidence: r.Confidence, Order: order}
				found = true
			}
			break // rules are sorted; the first non-window hit is the best
		}
	}
	for i := 0; i < len(window); i++ {
		consider(window[i], 1)
		for j := i + 1; j < len(window); j++ {
			consider(window[i]+assocSep+window[j], 2)
		}
	}
	return best, found
}

var _ Predictor = (*Assoc)(nil)
