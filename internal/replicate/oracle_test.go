package replicate

import (
	"fmt"
	"math/big"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"prord/internal/mining"
)

// The oracle is Algorithm 3 read literally: the rank table is a map of
// path to count, and every round sorts all of it ("Sort(rank_table)")
// before walking the T1 ladder down the sorted rows. Manager.Step must
// make the same Replicate and Drop calls, in the same order.

// oracleEntry is one row of the oracle's rank table.
type oracleEntry struct {
	Path  string
	Count float64
}

// oracleRanker is the rank table as a map of path to decayed count.
type oracleRanker struct {
	counts map[string]float64
	decay  float64
}

func newOracleRanker(decay float64) *oracleRanker {
	if decay <= 0 || decay > 1 {
		decay = 0.5
	}
	return &oracleRanker{counts: make(map[string]float64), decay: decay}
}

func (r *oracleRanker) Observe(path string) { r.counts[path]++ }

func (r *oracleRanker) Age() {
	for p, c := range r.counts {
		c *= r.decay
		if c < 0.01 {
			delete(r.counts, p)
		} else {
			r.counts[p] = c
		}
	}
}

// TableInto is the rank table sorted by descending count, ties broken
// by path, built in buf's storage.
func (r *oracleRanker) TableInto(buf []oracleEntry) []oracleEntry {
	out := slices.Grow(buf[:0], len(r.counts))
	for p, c := range r.counts {
		out = append(out, oracleEntry{Path: p, Count: c})
	}
	slices.SortFunc(out, func(a, b oracleEntry) int {
		switch {
		case a.Count > b.Count:
			return -1
		case a.Count < b.Count:
			return 1
		}
		return strings.Compare(a.Path, b.Path)
	})
	return out
}

// exactSum is the table's total, correctly rounded: the float64 nearest
// the exact sum. 2,200 bits hold any sum of float64s exactly.
func exactSum(table []oracleEntry) float64 {
	acc := new(big.Float).SetPrec(2200)
	for _, e := range table {
		acc.Add(acc, big.NewFloat(e.Count))
	}
	total, _ := acc.Float64()
	return total
}

// oracleManager is Manager over the oracle's rank table.
type oracleManager struct {
	cfg      Config
	ranker   *oracleRanker
	placed   map[string]bool
	table    []oracleEntry
	examined map[string]bool
	holders  []int
	cooled   []string
}

func newOracleManager(ranker *oracleRanker, cfg Config) *oracleManager {
	return &oracleManager{cfg: cfg.withDefaults(), ranker: ranker, placed: make(map[string]bool), examined: make(map[string]bool)}
}

// Step is one round of Algorithm 3 over the whole sorted table.
func (m *oracleManager) Step(p Placer) int {
	m.table = m.ranker.TableInto(m.table) // (i) Sort(rank_table)
	table := m.table
	t1 := m.cfg.T1Fraction * exactSum(table)
	limit := len(table)
	if m.cfg.MaxFiles > 0 && limit > m.cfg.MaxFiles {
		limit = m.cfg.MaxFiles
	}
	pushed := 0
	examined := m.examined
	clear(examined)
	if t1 > 0 {
		for _, e := range table[:limit] { // (ii) for every element
			examined[e.Path] = true
			degree := Degree(e.Count, t1, p.NumServers())
			if degree < 0 {
				continue // NO_CHANGE
			}
			pushed += m.converge(p, e.Path, degree)
			if degree > 0 {
				m.placed[e.Path] = true
			} else {
				delete(m.placed, e.Path)
			}
		}
	}
	// Files whose counts decayed off the hot window fall in the "NONE"
	// band by definition: reclaim their pinned replicas, in path order.
	m.cooled = m.cooled[:0]
	for file := range m.placed {
		if !examined[file] {
			m.cooled = append(m.cooled, file)
		}
	}
	sort.Strings(m.cooled)
	for _, file := range m.cooled {
		m.converge(p, file, 0)
		delete(m.placed, file)
	}
	m.ranker.Age()
	return pushed
}

func (m *oracleManager) converge(p Placer, file string, degree int) int {
	holders := p.Holders(-1, file, m.holders[:0])
	m.holders = holders
	sort.Ints(holders)
	if len(holders) > degree {
		for _, s := range holders[degree:] {
			p.Drop(-1, file, s)
		}
		return 0
	}
	pushed := 0
	start := int(hashString(file) % uint32(p.NumServers()))
	for i := 0; len(holders)+pushed < degree && i < p.NumServers(); i++ {
		s := (start + i) % p.NumServers()
		if _, held := slices.BinarySearch(holders, s); held {
			continue
		}
		p.Replicate(-1, file, s)
		pushed++
	}
	return pushed
}

// logPlacer is a fakePlacer that logs every Replicate and Drop call.
// Given a ranker, it also checks that each call's rank row names its
// file; the oracle, which has no rows, passes -1.
type logPlacer struct {
	*fakePlacer
	ranker *mining.Ranker
	log    []string
	bad    []string
}

func (p *logPlacer) check(row int, file string) {
	if p.ranker != nil && (row < 0 || row >= p.ranker.Rows() || p.ranker.Path(row) != file) {
		p.bad = append(p.bad, fmt.Sprintf("row %d for %s", row, file))
	}
}

func (p *logPlacer) Holders(row int, file string, dst []int) []int {
	p.check(row, file)
	return p.fakePlacer.Holders(row, file, dst)
}

func (p *logPlacer) Replicate(row int, file string, server int) {
	p.check(row, file)
	p.log = append(p.log, fmt.Sprintf("+%s@%d", file, server))
	p.fakePlacer.Replicate(row, file, server)
}

func (p *logPlacer) Drop(row int, file string, server int) {
	p.check(row, file)
	p.log = append(p.log, fmt.Sprintf("-%s@%d", file, server))
	p.fakePlacer.Drop(row, file, server)
}

// twin drives Manager and the oracle through one sequence of calls.
type twin struct {
	r    *mining.Ranker
	m    *Manager
	p    *logPlacer
	or   *oracleRanker
	om   *oracleManager
	op   *logPlacer
	step int
}

func newTwin(cfg Config, decay float64, servers int) *twin {
	w := &twin{r: mining.NewRanker(decay), or: newOracleRanker(decay)}
	w.m, w.om = NewManager(w.r, cfg), newOracleManager(w.or, cfg)
	w.p = &logPlacer{fakePlacer: newFakePlacer(servers), ranker: w.r}
	w.op = &logPlacer{fakePlacer: newFakePlacer(servers)}
	return w
}

func (w *twin) observe(path string) { w.r.Observe(path); w.or.Observe(path) }
func (w *twin) age()                { w.r.Age(); w.or.Age() }

// stepAndCompare runs one round on both sides and reports the first
// difference in what they did.
func (w *twin) stepAndCompare() error {
	w.step++
	w.p.log, w.op.log = w.p.log[:0], w.op.log[:0]
	got, want := w.m.Step(w.p), w.om.Step(w.op)
	if len(w.p.bad) > 0 {
		return fmt.Errorf("round %d: Step handed the placer a wrong rank row: %v", w.step, w.p.bad)
	}
	if !slices.Equal(w.p.log, w.op.log) {
		return fmt.Errorf("round %d: Step made calls\n%v\nthe oracle made\n%v", w.step, w.p.log, w.op.log)
	}
	if got != want {
		return fmt.Errorf("round %d: Step pushed %d, the oracle %d", w.step, got, want)
	}
	if w.r.Len() != len(w.or.counts) {
		return fmt.Errorf("round %d: ranker holds %d rows, the oracle %d", w.step, w.r.Len(), len(w.or.counts))
	}
	for path, c := range w.or.counts {
		if row, ok := w.r.Row(path); !ok || w.r.CountOf(row) != c {
			return fmt.Errorf("round %d: count of %s differs from the oracle's %v", w.step, path, c)
		}
	}
	return nil
}

// oraclePath names file k so that path order is not k's order.
func oraclePath(k int) string { return fmt.Sprintf("/%04d", (k*7919)%10007) }

var oracleMaxFiles = []int{0, 1, 64, 512}

// TestStepMatchesOracle replays seeded Observe/Age/Step sequences over
// a Zipf-like popularity with heavy count ties through Manager and the
// oracle, at every MaxFiles the round treats differently.
func TestStepMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		for _, maxFiles := range oracleMaxFiles {
			rng := rand.New(rand.NewSource(seed))
			files := 50 + rng.Intn(1600)
			fracs := []float64{0.5, 0.25, 0.125, 0.05, 0.02, 0.005}
			decays := []float64{0.5, 0.9, 1}
			cfg := Config{T1Fraction: fracs[rng.Intn(len(fracs))], MaxFiles: maxFiles}
			w := newTwin(cfg, decays[rng.Intn(len(decays))], 1+rng.Intn(8))
			zipf := rand.NewZipf(rng, 1.1, 1, uint64(files-1))
			for round := 0; round < 40; round++ {
				// A burst of traffic, sometimes hot, sometimes flat.
				for n := rng.Intn(3000); n > 0; n-- {
					if round%5 == 4 {
						w.observe(oraclePath(rng.Intn(files)))
					} else {
						w.observe(oraclePath(int(zipf.Uint64())))
					}
				}
				if rng.Intn(4) == 0 {
					w.age()
				}
				if err := w.stepAndCompare(); err != nil {
					t.Fatalf("seed %d, %+v: %v", seed, cfg, err)
				}
			}
		}
	}
}

// FuzzStep decodes an Observe/Age/Step sequence from the input and
// holds Manager to the oracle over it. Counts are small integers and
// their halvings, so ties and counts on a band's edge are the rule.
func FuzzStep(f *testing.F) {
	f.Add([]byte{0, 0, 0, 3, 3, 3, 11, 19, 8, 2, 40, 9, 1, 0})
	f.Add([]byte{1, 1, 2, 5, 2, 9, 2, 200, 8, 9, 8, 3, 8, 16, 8, 24})
	f.Add([]byte{2, 3, 4, 2, 255, 2, 128, 8, 3, 11, 8, 1, 8, 1, 8, 1, 8})
	f.Add([]byte{3, 0, 7, 2, 90, 2, 91, 2, 92, 8, 4, 8, 12, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		fracs := []float64{0.5, 0.25, 0.125, 0.0625, 0.02, 0.001}
		decays := []float64{0.5, 0.9, 1}
		cfg := Config{T1Fraction: fracs[int(data[1]>>2)%len(fracs)], MaxFiles: oracleMaxFiles[data[0]%4]}
		w := newTwin(cfg, decays[int(data[1])%len(decays)], 1+int(data[2])%8)
		for i := 3; i < len(data); i++ {
			b := data[i]
			switch b % 8 {
			case 0:
				if err := w.stepAndCompare(); err != nil {
					t.Fatalf("%+v: %v", cfg, err)
				}
			case 1:
				w.age()
			case 2:
				// A flat burst: many files once each, enough rows to
				// reach past MaxFiles 64 and 512.
				if i+1 < len(data) {
					i++
					from := int(data[i]) * 3
					for k := 0; k < 4*int(b>>3)+8; k++ {
						w.observe(oraclePath(from + k))
					}
				}
			default:
				for n := 1 + int(b%8)/3; n > 0; n-- {
					w.observe(oraclePath(int(b >> 3)))
				}
			}
		}
		if err := w.stepAndCompare(); err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
	})
}
