// Package mining implements the web-log mining that drives PRORD: the
// n-order dependency graph and candidate paths of Algorithm 1, the
// prefetch-prediction of Algorithm 2, a PPM (prediction-by-partial-match)
// Markov predictor for comparison, popularity ranking for the replication
// of Algorithm 3, and bundle (embedded-object table) discovery (§3, §4.1).
package mining

import (
	"fmt"
	"strings"

	"prord/internal/trace"
)

// Prediction is one predicted next page with its confidence: the fraction
// of historical continuations of the matched context that went to Page.
type Prediction struct {
	Page       string
	Confidence float64
	// Order is the context length (number of trailing pages) the
	// prediction was made from; longer contexts are more trustworthy
	// ("the longer the comparison paths are, the better the confidence").
	Order int
}

// Model is an n-order navigation model: for every observed page sequence
// of length 1..Order it records the continuation counts. The paper's
// space-saving rule (§4.1.1-i: store relations only between directly
// linked pages) holds by construction, because contexts are only ever
// extended along transitions that actually occur.
type Model struct {
	order int
	// ctx maps a joined context ("a|b") to its continuation stats.
	ctx map[string]*ctxStats
	// accessed counts per-page accesses (Algorithm 2's Accessed_Num).
	accessed map[string]int
	// observations counts the training transitions.
	observations int
}

type ctxStats struct {
	total int
	next  map[string]int
}

const ctxSep = "|"

// ctxKeyBuf is the size of the stack buffer context keys are built in;
// a longer key spills to the heap.
const ctxKeyBuf = 256

// context returns the stats stored under the context pages (the key
// strings.Join(pages, ctxSep)), or nil. The key is built in a stack
// buffer and the map is indexed with string(buf), which the compiler
// does without copying, so a lookup allocates nothing unless the key
// is longer than ctxKeyBuf.
func (m *Model) context(pages []string) *ctxStats {
	if len(pages) == 1 {
		return m.ctx[pages[0]]
	}
	var buf [ctxKeyBuf]byte
	key := buf[:0]
	for i, p := range pages {
		if i > 0 {
			key = append(key, ctxSep...)
		}
		key = append(key, p...)
	}
	return m.ctx[string(key)]
}

// NewModel returns an empty model of the given order (max context length).
// Order must be at least 1.
func NewModel(order int) *Model {
	if order < 1 {
		panic(fmt.Sprintf("mining: order must be >= 1, got %d", order))
	}
	return &Model{
		order:    order,
		ctx:      make(map[string]*ctxStats),
		accessed: make(map[string]int),
	}
}

// Order returns the model's maximum context length.
func (m *Model) Order() int { return m.order }

// Window implements OnlinePredictor.
func (m *Model) Window() int { return m.order }

// Contexts returns the number of distinct contexts stored — the paper's
// memory-cost measure for the dependency graph.
func (m *Model) Contexts() int { return len(m.ctx) }

// Observations returns the number of transitions the model has seen.
func (m *Model) Observations() int { return m.observations }

// ObserveSequence trains the model on one session's ordered main-page
// sequence.
func (m *Model) ObserveSequence(pages []string) {
	for i, p := range pages {
		m.accessed[p]++
		if i == 0 {
			continue
		}
		m.observations++
		// Register the transition under every context length that fits.
		for k := 1; k <= m.order && k <= i; k++ {
			cs := m.context(pages[i-k : i])
			if cs == nil {
				cs = &ctxStats{next: make(map[string]int)}
				m.ctx[strings.Join(pages[i-k:i], ctxSep)] = cs
			}
			cs.total++
			cs.next[p]++
		}
	}
}

// Train consumes a whole trace, feeding every session's main-page
// sequence (embedded-object requests are excluded: navigation prediction
// operates on pages, bundles cover the objects).
func (m *Model) Train(tr *trace.Trace) { eachPageSequence(tr, m.ObserveSequence) }

// eachPageSequence calls observe with the main-page sequence of every
// session of tr that has one, in ascending session id, each in arrival
// order, through one buffer it refills for every session.
func eachPageSequence(tr *trace.Trace, observe func(pages []string)) {
	var pages []string
	for _, s := range tr.Sessions() {
		pages = pages[:0]
		for _, i := range s.Reqs {
			if r := &tr.Requests[i]; !r.Embedded {
				pages = append(pages, r.Path)
			}
		}
		if len(pages) > 0 {
			observe(pages)
		}
	}
}

// Accessed returns Algorithm 2's Accessed_Num for a page.
func (m *Model) Accessed(page string) int { return m.accessed[page] }

// Predict returns the most likely next page given the user's recent page
// sequence, using the longest stored context (PPM-style longest-match).
// The boolean is false when no context of any length matches.
func (m *Model) Predict(recent []string) (Prediction, bool) {
	if len(recent) == 0 {
		return Prediction{}, false
	}
	start := len(recent) - m.order
	if start < 0 {
		start = 0
	}
	for k := len(recent) - start; k >= 1; k-- {
		cs := m.context(recent[len(recent)-k:])
		if cs == nil || cs.total == 0 {
			continue
		}
		best, bestCount := "", 0
		// Deterministic argmax: ties broken by lexicographic page order.
		for page, count := range cs.next {
			if count > bestCount || (count == bestCount && page < best) {
				best, bestCount = page, count
			}
		}
		return Prediction{
			Page:       best,
			Confidence: float64(bestCount) / float64(cs.total),
			Order:      k,
		}, true
	}
	return Prediction{}, false
}

// Tracker maintains the per-connection navigation state Algorithm 2
// attaches to every persistent connection ("sequence and previous_page
// are assigned to each connection"): the last Window() pages requested.
// The windows live in one slab, Window() entries per slot: recent maps
// a connection to its slot, and a closed connection's slot is kept for
// the next one to open. So Observe allocates nothing once the slab has
// grown to the most connections open at once, and the transition handed
// to the model lives in the tracker.
type Tracker struct {
	model  OnlinePredictor
	online bool
	width  int           // entries per slot: the model's Window(), at least 1
	recent map[int]int32 // conn -> slot
	pages  []string      // slot k's entries at pages[k*width:(k+1)*width]
	lens   []int32       // window length by slot
	free   []int32       // slots of closed connections
	// pair is the [prev, page] or [page] sequence ObserveSequence sees.
	pair [2]string
}

// NewTracker returns a tracker over an online predictor (usually the
// n-order Model; PPM, SeqRules or DG also qualify). If online is true,
// observed transitions also update the model (the paper's dynamic online
// tracking complementing offline analysis).
func NewTracker(model OnlinePredictor, online bool) *Tracker {
	return &Tracker{model: model, online: online, width: max(model.Window(), 1), recent: make(map[int]int32)}
}

// Observe records that conn requested page and returns the prediction for
// the connection's next page.
func (t *Tracker) Observe(conn int, page string) (Prediction, bool) {
	k, ok := t.recent[conn]
	if !ok {
		k = t.open()
		t.recent[conn] = k
	}
	seq := t.window(k)
	if t.online {
		obs := t.pair[:0]
		if len(seq) > 0 {
			obs = append(obs, seq[len(seq)-1])
		}
		t.model.ObserveSequence(append(obs, page))
	}
	if len(seq) == t.width {
		copy(seq, seq[1:])
		seq = seq[:len(seq)-1]
	}
	seq = append(seq, page)
	t.lens[k] = int32(len(seq))
	return t.model.Predict(seq)
}

// window returns slot k's window, whose capacity ends with the slot.
func (t *Tracker) window(k int32) []string {
	lo := int(k) * t.width
	return t.pages[lo : lo+int(t.lens[k]) : lo+t.width]
}

// open returns an empty slot: a closed connection's when one is free,
// else a new one at the end of the slab.
func (t *Tracker) open() int32 {
	if n := len(t.free); n > 0 {
		k := t.free[n-1]
		t.free = t.free[:n-1]
		return k
	}
	t.pages = append(t.pages, make([]string, t.width)...)
	t.lens = append(t.lens, 0)
	return int32(len(t.lens) - 1)
}

// Close discards a finished connection's state, keeping its slot for
// the next connection to open.
func (t *Tracker) Close(conn int) {
	k, ok := t.recent[conn]
	if !ok {
		return
	}
	delete(t.recent, conn)
	clear(t.window(k))
	t.lens[k] = 0
	t.free = append(t.free, k)
}

// Slots returns the number of window slots in the slab, open and free:
// the most connections the tracker has held at once.
func (t *Tracker) Slots() int { return len(t.lens) }
