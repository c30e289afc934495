// Package replicate implements PRORD's popularity-driven replication
// (Algorithm 3, §4.1.2): every t seconds the rank table built from
// dynamic log mining is sorted and each file's replication degree across
// the backend servers' memories is set by the T1 threshold ladder —
// hotter files are replicated more widely.
package replicate

import (
	"hash/fnv"
	"sort"

	"prord/internal/mining"
)

// Placer is the cluster-side executor of replication decisions. The
// manager decides degrees; the Placer moves bytes and updates the
// dispatcher's locality maps.
type Placer interface {
	// NumServers returns the backend count.
	NumServers() int
	// Holders returns the backends currently holding a replica of file
	// placed by the replication manager.
	Holders(file string) []int
	// Replicate pushes a copy of file to server.
	Replicate(file string, server int)
	// Drop removes the replica of file from server.
	Drop(file string, server int)
}

// Config tunes Algorithm 3.
type Config struct {
	// T1Fraction positions the top threshold T1 as a fraction of the
	// rank table's total (decayed) request count. Files whose count
	// exceeds T1 replicate to all servers. Default 0.02.
	T1Fraction float64
	// MaxFiles caps how many rank-table rows are examined per step (the
	// table is sorted, so these are the hottest files). 0 means all.
	MaxFiles int
}

// DefaultConfig returns the default Algorithm 3 tuning.
func DefaultConfig() Config { return Config{T1Fraction: 0.02, MaxFiles: 512} }

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.T1Fraction <= 0 || c.T1Fraction > 1 {
		c.T1Fraction = d.T1Fraction
	}
	if c.MaxFiles < 0 {
		c.MaxFiles = d.MaxFiles
	}
	return c
}

// Manager runs the periodic replication algorithm against a popularity
// ranker.
type Manager struct {
	cfg    Config
	ranker *mining.Ranker
	steps  int
	placed map[string]bool // files with manager-placed replicas
	// table and examined are Step's scratch space, kept between rounds.
	table    []mining.Entry
	examined map[string]bool
}

// NewManager returns a manager reading popularity from ranker.
func NewManager(ranker *mining.Ranker, cfg Config) *Manager {
	if ranker == nil {
		panic("replicate: nil ranker")
	}
	return &Manager{cfg: cfg.withDefaults(), ranker: ranker, placed: make(map[string]bool), examined: make(map[string]bool)}
}

// Ranker exposes the underlying rank table (Observe feeds it per request).
func (m *Manager) Ranker() *mining.Ranker { return m.ranker }

// Steps reports how many replication rounds have run.
func (m *Manager) Steps() int { return m.steps }

// Degree returns the desired number of replicas for a file with the given
// (decayed) request count under threshold t1 and n servers. A degree of
// -1 means "no change" (the T1/8..T1/4 band); 0 means "drop extra
// replicas".
func Degree(count, t1 float64, n int) int {
	switch {
	case count > t1:
		return n
	case count > t1/2:
		return ceilFrac(n, 3, 4)
	case count > t1/4:
		return ceilFrac(n, 1, 2)
	case count > t1/8:
		return -1 // NO_CHANGE
	default:
		return 0 // NONE
	}
}

func ceilFrac(n, num, den int) int {
	v := (n*num + den - 1) / den
	if v < 1 {
		v = 1
	}
	return v
}

// Step runs one round of Algorithm 3: sort the rank table, compute each
// hot file's desired degree, and converge the Placer to it. It returns
// the number of replicas pushed.
func (m *Manager) Step(p Placer) int {
	m.steps++
	m.table = m.ranker.TableInto(m.table) // (i) Sort(rank_table)
	table := m.table
	// Sum in rank order: float addition is not associative, and the sum
	// feeds every count > t1 comparison below.
	var total float64
	for _, e := range table {
		total += e.Count
	}
	t1 := m.cfg.T1Fraction * total
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
			pushed += converge(p, e.Path, degree)
			if degree > 0 {
				m.placed[e.Path] = true
			} else {
				delete(m.placed, e.Path)
			}
		}
	}
	// Files whose counts decayed off the hot window fall in the "NONE"
	// band by definition: reclaim their pinned replicas.
	for file := range m.placed {
		if !examined[file] {
			converge(p, file, 0)
			delete(m.placed, file)
		}
	}
	m.ranker.Age()
	return pushed
}

// converge adds or drops replicas of file until exactly degree are
// placed. Server choice is deterministic: existing holders are kept
// (lowest index first), new replicas fill round-robin from a hash of the
// file name so hot files spread across different starting servers.
func converge(p Placer, file string, degree int) int {
	holders := append([]int(nil), p.Holders(file)...)
	sort.Ints(holders)
	if len(holders) > degree {
		for _, s := range holders[degree:] {
			p.Drop(file, s)
		}
		return 0
	}
	have := make(map[int]bool, len(holders))
	for _, s := range holders {
		have[s] = true
	}
	pushed := 0
	start := int(hashString(file) % uint32(p.NumServers()))
	for i := 0; len(have) < degree && i < p.NumServers(); i++ {
		s := (start + i) % p.NumServers()
		if have[s] {
			continue
		}
		p.Replicate(file, s)
		have[s] = true
		pushed++
	}
	return pushed
}

func hashString(s string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(s))
	return h.Sum32()
}
