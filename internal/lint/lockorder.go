package lint

import (
	"fmt"
	"sort"
)

// LockOrder is the interprocedural concurrency analyzer: it verifies
// the dispatch core's documented lock hierarchy and flags blocking
// operations reached while any lock is held.
//
// The hierarchy (see lockHierarchy in lockset.go and DESIGN.md):
//
//	Core.wrMu (10) → Core.trackMu (20) → Core.ovMu (30) → leaves
//	sessionShard.mu (90)  fileShard.mu (91)  recordEmitter.mu (92)
//	targetStripe.mu (93)  WRR.mu (94)  Detector.mu (97)
//
// wrMu serializes backend invalidation sweeps: the routing read path
// itself acquires no Core-level lock (policy inputs are fixed at New),
// so only the sweeps ever hold it.
//
// Three ordering rules apply at every acquisition — direct, or
// transitively through a synchronous callee:
//
//  1. Acquiring a class already held is flagged: either a self-deadlock
//     on the same mutex or a second stripe of a striped table, whose
//     relative order is not statically checkable.
//  2. Nothing may be acquired while a leaf class is held.
//  3. Two ranked classes must be acquired in ascending rank.
//
// Unranked lock pairs (two mutexes outside the hierarchy table) are
// not ordered against each other — the analyzer under-approximates
// rather than inventing an order.
//
// Independently of rank, any potentially blocking operation — channel
// send/receive, select without a default case, range over a channel,
// time.Sleep, WaitGroup/Cond Wait, net dial/listen/read/write,
// net/http round trips — is flagged when the lockset is non-empty,
// including when the block happens inside a callee.
var LockOrder = &Analyzer{
	Name:         "lockorder",
	WholeProgram: true,
	Run:          runLockOrder,
}

func runLockOrder(pass *Pass) {
	prog := pass.Prog
	for _, n := range prog.Graph.Nodes() {
		w := prog.Walk(n)
		// Direct ordering violations at acquisition sites.
		for _, op := range w.lockOps {
			for _, h := range op.held {
				if msg := lockOrderViolation(h.class, op.class); msg != "" {
					pass.Reportf(op.pos, "%s", msg)
				}
			}
		}
		// Direct blocking operations under a non-empty lockset.
		for _, op := range w.blockOps {
			if len(op.held) == 0 {
				continue
			}
			pass.Reportf(op.pos,
				"%s while holding %s; a blocked goroutine keeps the lock and stalls every other acquirer",
				op.what, heldNames(op.held))
		}
		// Call sites: charge the callee's transitive effects against the
		// caller's lockset. Only synchronous calls are recorded (deferred
		// calls run at exit, go statements on a fresh goroutine).
		for _, site := range w.calls {
			if len(site.held) == 0 {
				continue
			}
			reported := map[string]bool{}
			for _, callee := range site.edge.Callees {
				f := prog.Facts(callee)
				if f == nil {
					continue
				}
				if f.blocks != "" {
					msg := fmt.Sprintf(
						"call to %s may block (%s%s) while holding %s; release the lock before blocking",
						callee.Name(), f.blocks, viaSuffix(f.blocksVia), heldNames(site.held))
					if !reported[msg] {
						reported[msg] = true
						pass.Reportf(site.edge.Pos, "%s", msg)
					}
				}
				for _, acq := range sortedClasses(f.acquires) {
					for _, h := range site.held {
						v := lockOrderViolation(h.class, acq)
						if v == "" {
							continue
						}
						msg := fmt.Sprintf("call to %s%s: %s",
							callee.Name(), viaSuffix(f.acquiresVia[acq.key]), v)
						if !reported[msg] {
							reported[msg] = true
							pass.Reportf(site.edge.Pos, "%s", msg)
						}
					}
				}
			}
		}
	}
}

// lockOrderViolation reports why acquiring acq while held is held
// breaks the hierarchy ("" when it does not).
func lockOrderViolation(held, acq lockClass) string {
	switch {
	case held.key == acq.key:
		return fmt.Sprintf(
			"%s acquired while an instance of %s is already held (self-deadlock, or two stripes whose order is not statically checkable)",
			acq.display, held.display)
	case held.leaf:
		return fmt.Sprintf(
			"%s acquired while holding %s, a leaf of the lock hierarchy; nothing may be acquired under a shard lock",
			acq.display, held.display)
	case held.ranked && acq.ranked && acq.rank <= held.rank:
		return fmt.Sprintf(
			"lock order inversion: %s (rank %d) acquired while holding %s (rank %d); the documented order is wrMu → trackMu → ovMu → leaves",
			acq.display, acq.rank, held.display, held.rank)
	}
	return ""
}

func heldNames(held []heldLock) string {
	s := ""
	for i, h := range held {
		if i > 0 {
			s += ", "
		}
		s += h.class.display
	}
	return s
}

func viaSuffix(via string) string {
	if via == "" {
		return ""
	}
	return " via " + via
}

// sortedClasses returns the acquire set in deterministic key order.
func sortedClasses(m map[string]lockClass) []lockClass {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]lockClass, len(keys))
	for i, k := range keys {
		out[i] = m[k]
	}
	return out
}
