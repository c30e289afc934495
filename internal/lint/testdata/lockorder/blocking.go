// lockorder fixture: blocking operations under a held lock. Blocking
// rules are rank-independent — any non-empty lockset counts — so the
// findings here do not depend on the fixture's import path.
package dispatch

import "sync"

type fileTable struct {
	mu sync.Mutex
	ch chan int
}

// sendUnderLock performs a blocking channel send while holding the
// table lock: if no receiver is ready, every other acquirer stalls.
func (f *fileTable) sendUnderLock(v int) {
	f.mu.Lock()
	f.ch <- v // want lockorder
	f.mu.Unlock()
}

// sendViaHelper reaches the same send through a callee; the effect
// summary propagates "may block" to this call site.
func (f *fileTable) sendViaHelper(v int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	push(f.ch, v) // want lockorder
}

func push(ch chan int, v int) {
	ch <- v
}

// tryEnqueue is the sanctioned shape: a select with a default case is
// a non-blocking attempt and is fine under the lock.
func (f *fileTable) tryEnqueue(v int) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	select {
	case f.ch <- v:
		return true
	default:
		return false
	}
}

// recvUnlocked blocks only after the lock is released.
func (f *fileTable) recvUnlocked() int {
	f.mu.Lock()
	f.mu.Unlock()
	return <-f.ch
}
