// lockorder fixture: a clean hierarchy. Every acquisition follows the
// documented order (trackMu → ovMu → table leaves) and no blocking
// operation happens under a lock; the analyzer must stay silent on
// this file.
package dispatch

import "sync"

type Core struct {
	trackMu sync.Mutex
	ovMu    sync.Mutex
	sess    sessionTable
}

type sessionTable struct {
	mu sync.Mutex
	n  int
}

// route nests in documented order: trackMu, then ovMu, then a table
// leaf taken and released as the innermost lock.
func (c *Core) route() {
	c.trackMu.Lock()
	defer c.trackMu.Unlock()
	c.ovMu.Lock()
	c.ovMu.Unlock()
	c.sess.mu.Lock()
	c.sess.n++
	c.sess.mu.Unlock()
}

// sequential takes ranked locks against rank order but never nested —
// ordering rules only apply to locks held simultaneously.
func (c *Core) sequential() {
	c.ovMu.Lock()
	c.ovMu.Unlock()
	c.trackMu.Lock()
	c.trackMu.Unlock()
}

// helperAfterRelease calls a leaf-taking helper only after releasing
// everything, so the effect summary has nothing to flag.
func (c *Core) helperAfterRelease() {
	c.trackMu.Lock()
	c.trackMu.Unlock()
	c.touchTable()
}

func (c *Core) touchTable() {
	c.sess.mu.Lock()
	defer c.sess.mu.Unlock()
	c.sess.n++
}

// earlyUnlockBranch exercises the terminating-branch heuristic: the
// error arm unlocks and returns, the fall-through path still holds the
// lock and releases it at the end.
func (c *Core) earlyUnlockBranch(bad bool) {
	c.trackMu.Lock()
	if bad {
		c.trackMu.Unlock()
		return
	}
	c.trackMu.Unlock()
}
