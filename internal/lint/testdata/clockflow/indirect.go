// clockflow fixture: a wall-clock read laundered through helpers. The
// file type-checks under prord/internal/dispatch, making Entry a root;
// the read two hops away must still be found via the call graph (the
// hole a file-scoped check cannot close).
package dispatch

import "time"

// Entry is a dispatch entry point.
func Entry() int64 {
	return stampVia()
}

func stampVia() int64 {
	return stamp().UnixNano()
}

func stamp() time.Time {
	return time.Now() // want clockflow
}
