// Command bench is the repo's benchmark: four fixed-work workloads,
// ten end-to-end metrics and a per-layer cost budget, all measured from
// outside the program through its public functions. README.md defines
// every workload and metric.
//
//	go run ./bench -workload proxy-hot -seed 1            end-to-end metrics
//	go run ./bench -workload proxy-hot -seed 1 -trace 1   per-layer metrics, spans, budget table
//	go run ./bench -repeat 5                              same build twice, must agree within bounds
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"
)

func main() {
	name := flag.String("workload", "", "workload: proxy-hot, conn-churn, miss-bound or sim-paper")
	seed := flag.Int64("seed", 1, "the seed every input is generated from")
	seconds := flag.Int("seconds", nominalSeconds, "work budget: request counts are stated for 20 and scale in proportion")
	traced := flag.Int("trace", 0, "1: traced run (per-layer metrics, bench/out/trace-W.json, budget table)")
	repeat := flag.Int("repeat", 0, "run two interleaved sets of N passes of every workload and compare their medians")
	flag.Parse()
	if flag.NArg() != 0 || *seconds < 1 || (*traced != 0 && *traced != 1) || *repeat < 0 {
		flag.Usage()
		os.Exit(2)
	}
	if *repeat > 0 {
		os.Exit(repeatability(*repeat, *seconds))
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		flag.Usage()
		os.Exit(2)
	}
	if err := runOne(w, *seed, *seconds, *traced == 1); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runOne measures one workload on one seed and prints the result.
func runOne(w workload, seed int64, seconds int, traced bool) error {
	factor := float64(seconds) / nominalSeconds
	// A run that takes three times its expected wall time is a failed
	// run; cutting it short would report a window nobody asked for.
	limit := 3 * time.Duration(float64(w.wall)*math.Max(factor, 1))
	if traced {
		// A traced run replays a quarter of the work, three times over:
		// probes off, probes on, and a control pass.
		factor /= 4
	}
	w = w.scaled(factor)
	watchdog := time.AfterFunc(limit, func() {
		fmt.Fprintf(os.Stderr, "bench: %s exceeded %v, three times its expected wall time; aborting\n", w.name, limit)
		os.Exit(3)
	})
	defer watchdog.Stop()

	fmt.Printf("workload=%s seed=%d seconds=%d trace=%t GOMAXPROCS=%d GOGC=%s clients=%d\n",
		w.name, seed, seconds, traced, runtime.GOMAXPROCS(0), gogc(), clients())
	in, err := generate(w, seed)
	if err != nil {
		return err
	}
	fmt.Printf("schedule: %d requests, %d sessions, %d files, training log %d lines, digest %s\n",
		in.scheduled, len(in.scripts), len(in.files), in.logLines, in.digest)

	settle()
	fmt.Printf("inputs generated: peak_rss_mb %.1f so far, the benchmark's own share of the final figure\n", peakRSSMB())
	before := calibrate()
	var rep *report
	list := endToEnd
	switch {
	case traced:
		list = perLayer
		rep, err = runTraced(w, in, seed)
	case w.sim:
		rep, err = runSim(w, in)
	default:
		rep, err = runLive(w, in, seed)
	}
	if err != nil {
		return err
	}
	after := calibrate()
	fmt.Printf("host.calib_ns before=%d after=%d\n", before.Nanoseconds(), after.Nanoseconds())
	if traced {
		rep.set("host.calib_ns", float64(before+after)/2)
	}
	return rep.print(os.Stdout, list)
}
