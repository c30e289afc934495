package fixture

import "time"

// This fixture is named prober.go on purpose: a file name grants no
// wall-clock allowance, not even under prord/internal/health, whose real
// prober keeps its timer through an in-source //lint:ignore clockflow
// directive (see ignored.go). Every call below is reported.

func jitteredTimerLoop(stop <-chan struct{}) {
	t := time.NewTimer(time.Millisecond) // want clockflow
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			t.Reset(time.Millisecond)
		}
	}
}

func readsClock() time.Time {
	return time.Now() // want clockflow
}
