package fixture

import "time"

func readsWallClock() time.Duration {
	start := time.Now()            // want clockflow
	time.Sleep(time.Millisecond)   // want clockflow
	<-time.After(time.Millisecond) // want clockflow
	return time.Since(start)       // want clockflow
}

func pureTimeIsFine() time.Duration {
	d := 5 * time.Second
	d += time.Duration(3) * time.Millisecond
	_ = d.Seconds()
	return d
}
