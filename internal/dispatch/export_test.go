package dispatch

import "time"

// NewWithDegraded builds a Core from cfg whose degraded mask is the
// scripted degraded instead of a gray detector's verdict, so a test
// can flag and clear backends directly. degraded must be lock-free and
// non-blocking, like the detector's mask.
func NewWithDegraded(cfg Config, degraded func(server int) bool) (*Core, error) {
	c, err := New(cfg)
	if err != nil {
		return nil, err
	}
	c.degradedMask = degraded
	return c, nil
}

// HedgeTarget is Hedge's choice of backend for a backup request on
// path, booking nothing: the best accepting, non-degraded backend other
// than the primary, preferring one that already holds the file. ok is
// false (and the backend -1) when no backend is worth hedging to.
func (c *Core) HedgeTarget(path string, primary int, now time.Time) (int, bool) {
	_, fs := c.intern(path)
	return c.pickTarget(fs, primary, true, now)
}

// TryBeginHedge is Hedge's booking of a backup attempt for path on
// server under limit outstanding hedges per backend (see beginHedge).
func (c *Core) TryBeginHedge(server int, path string, limit int) bool {
	id, _ := c.intern(path)
	return c.beginHedge(server, id, limit)
}

// MaxLiveFiles is the intern table's cap on ids beyond the miner's
// paths.
const MaxLiveFiles = maxLiveFiles

// InternID returns path's id, interning it as an entry point does.
func (c *Core) InternID(path string) FileID {
	id, _ := c.intern(path)
	return id
}

// FileTableSize returns the intern table's entries and the lengths of
// the file slab and of its cell slab.
func (c *Core) FileTableSize() (ids, files, cells int) {
	f := &c.files
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.ids), len(f.files), len(f.cells)
}

// SessionSlots returns the session slab's length, live and free slots.
func (c *Core) SessionSlots() int {
	sh := &c.sessions
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return len(sh.slab)
}

// TrackerSlots returns the navigation tracker's window slots, open and
// free; 0 without navigation prefetch.
func (c *Core) TrackerSlots() int {
	if c.tracker == nil {
		return 0
	}
	c.trackMu.Lock()
	defer c.trackMu.Unlock()
	return c.tracker.Slots()
}
