// Package replicate implements PRORD's popularity-driven replication
// (Algorithm 3, §4.1.2): every t seconds the rank table built from
// dynamic log mining is sorted and each file's replication degree across
// the backend servers' memories is set by the T1 threshold ladder —
// hotter files are replicated more widely.
package replicate

import (
	"hash/fnv"
	"slices"
	"sort"
	"strings"

	"prord/internal/mining"
)

// Placer is the cluster-side executor of replication decisions. The
// manager decides degrees; the Placer moves bytes and updates the
// dispatcher's locality maps.
type Placer interface {
	// NumServers returns the backend count.
	NumServers() int
	// Holders appends to dst the backends currently holding a replica
	// of file placed by the replication manager, each once, and returns
	// the extended slice. The Manager owns dst and reuses it. Each
	// method gets the file's rank row (mining.Ranker's id) beside it.
	Holders(row int, file string, dst []int) []int
	// Replicate pushes a copy of file to server.
	Replicate(row int, file string, server int)
	// Drop removes the replica of file from server.
	Drop(row int, file string, server int)
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
	// placed and seen are by rank row: the row's file has manager-placed
	// replicas, and the last round that examined the row.
	placed []bool
	seen   []int
	// rows, cooled and holders are Step's scratch space, kept between
	// rounds.
	rows    []int
	cooled  []int
	holders []int
}

// NewManager returns a manager reading popularity from ranker.
func NewManager(ranker *mining.Ranker, cfg Config) *Manager {
	if ranker == nil {
		panic("replicate: nil ranker")
	}
	return &Manager{cfg: cfg.withDefaults(), ranker: ranker}
}

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

// Step runs one round of Algorithm 3: take the head of the sorted rank
// table, compute each hot file's desired degree, and converge the Placer
// to it. It returns the number of replicas pushed.
func (m *Manager) Step(p Placer) int {
	m.steps++
	if n := m.ranker.Rows(); len(m.placed) < n {
		m.placed = append(m.placed, make([]bool, n-len(m.placed))...)
		m.seen = append(m.seen, make([]int, n-len(m.seen))...)
	}
	rows, t1 := m.candidates() // (i) Sort(rank_table), its head
	m.rows = rows
	pushed := 0
	for _, row := range rows { // (ii) for every element
		m.seen[row] = m.steps
		degree := Degree(m.ranker.CountOf(row), t1, p.NumServers())
		if degree < 0 {
			continue // NO_CHANGE
		}
		pushed += m.converge(p, row, degree)
		m.placed[row] = degree > 0
	}
	// Files whose counts decayed off the hot window fall in the "NONE"
	// band by definition: reclaim their pinned replicas, in path order.
	m.cooled = m.cooled[:0]
	for row, placed := range m.placed {
		if placed && m.seen[row] != m.steps {
			m.cooled = append(m.cooled, row)
		}
	}
	slices.SortFunc(m.cooled, func(a, b int) int {
		return strings.Compare(m.ranker.Path(a), m.ranker.Path(b))
	})
	for _, row := range m.cooled {
		m.converge(p, row, 0)
		m.placed[row] = false
	}
	m.ranker.Age()
	return pushed
}

// candidates returns the rows the round examines, in rank order, and T1:
// the table's first MaxFiles rows or, with MaxFiles 0, every row above
// T1/8 and every placed row, since an unplaced row of degree 0 has
// nothing to drop.
func (m *Manager) candidates() ([]int, float64) {
	rows, total := m.ranker.Head(m.rows[:0], m.cfg.MaxFiles)
	t1 := m.cfg.T1Fraction * total
	if m.cfg.MaxFiles == 0 {
		for row, placed := range m.placed {
			if c := m.ranker.CountOf(row); c > t1/8 || placed && c > 0 {
				rows = append(rows, row)
			}
		}
		slices.SortFunc(rows, m.ranker.Compare)
	}
	return rows, t1
}

// converge adds or drops replicas of row's file until exactly degree are
// placed. Server choice is deterministic: existing holders are kept
// (lowest index first), new replicas fill round-robin from a hash of the
// file name so hot files spread across different starting servers.
func (m *Manager) converge(p Placer, row, degree int) int {
	file := m.ranker.Path(row)
	holders := p.Holders(row, file, m.holders[:0])
	m.holders = holders
	sort.Ints(holders)
	if len(holders) > degree {
		for _, s := range holders[degree:] {
			p.Drop(row, file, s)
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
		p.Replicate(row, file, s)
		pushed++
	}
	return pushed
}

func hashString(s string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(s))
	return h.Sum32()
}
