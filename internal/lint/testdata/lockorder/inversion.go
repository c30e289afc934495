// lockorder fixture: table→ranked lock inversions. Type-checked under
// the import path prord/internal/dispatch so the ranked hierarchy
// (Core.trackMu 20, Core.ovMu 30, sessionTable.mu leaf) applies to
// these mirror types.
package dispatch

import "sync"

type Core struct {
	trackMu sync.Mutex
	ovMu    sync.Mutex
}

type sessionTable struct {
	mu sync.Mutex
	n  int
}

// badDirect takes a ranked lock while holding a table leaf.
func (c *Core) badDirect(sh *sessionTable) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	c.trackMu.Lock() // want lockorder
	c.trackMu.Unlock()
}

// badIndirect reaches the same inversion through a callee: the caller
// holds the leaf, the helper acquires ovMu.
func (c *Core) badIndirect(sh *sessionTable) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	c.publishSnapshot() // want lockorder
}

func (c *Core) publishSnapshot() {
	c.ovMu.Lock()
	defer c.ovMu.Unlock()
}

// badRank inverts two ranked non-leaf classes (ovMu 30 → trackMu 20).
func (c *Core) badRank() {
	c.ovMu.Lock()
	defer c.ovMu.Unlock()
	c.trackMu.Lock() // want lockorder
	c.trackMu.Unlock()
}
