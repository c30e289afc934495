// clockflow fixture: a //lint:ignore clockflow directive on the line
// above a timer suppresses that finding and no other. The file
// type-checks under prord/internal/health, as the real prober does;
// run with staleignore, a directive that suppressed nothing would be
// reported too.
package health

import "time"

func waitBetweenProbes(d time.Duration, stop <-chan struct{}) {
	//lint:ignore clockflow probes wait real time between attempts
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-stop:
	case <-t.C:
	}
}

func stamp() time.Time {
	return time.Now() // want clockflow
}
