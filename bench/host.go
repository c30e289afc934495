package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime is the process's user+system CPU time so far. Unlike wall
// time it does not grow while a co-tenant holds the core.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procStatusKB reads one "Name:  123 kB" field of /proc/self/status.
func procStatusKB(field string) float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), field+":")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return 0
		}
		return kb
	}
	return 0
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 { return procStatusKB("VmHWM") / 1024 }

// mallocs is the cumulative count of heap objects allocated, with the
// bytes allocated alongside.
func mallocs() (objects, bytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}

// calibSink keeps the calibration loop's result live.
var calibSink uint64

// calibrate times a fixed integer kernel (an xorshift chain, no memory
// traffic, no allocation) and returns the fastest of three passes. It
// runs before and after every measurement: when the two readings or two
// runs' readings differ, the machine changed, not the program.
func calibrate() time.Duration {
	best := time.Duration(0)
	for pass := 0; pass < 3; pass++ {
		x := uint64(88172645463325252)
		start := time.Now()
		for i := 0; i < 1<<22; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		d := time.Since(start)
		calibSink += x
		if best == 0 || d < best {
			best = d
		}
	}
	return best
}

// gogc echoes the collector setting the run inherited; the benchmark
// never changes it.
func gogc() string {
	if v := os.Getenv("GOGC"); v != "" {
		return v
	}
	return "100"
}
