// Command prord-sim regenerates the PRORD paper's evaluation tables and
// figures on the simulated cluster.
//
// Usage:
//
//	prord-sim -exp all                 # every experiment, paper order
//	prord-sim -exp extras              # every experiment beyond the paper
//	prord-sim -exp fig7 -scale 0.5     # one experiment at half trace scale
//	prord-sim -list                    # list experiment ids
//
// Output is plain text, one aligned table per experiment.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"

	"prord/internal/experiment"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment id, 'all' or 'extras'")
		scale    = flag.Float64("scale", 0.2, "trace scale (1.0 = the paper's request counts)")
		seed     = flag.Int64("seed", 42, "workload generation seed")
		backends = flag.Int("backends", 8, "number of backend servers")
		memFrac  = flag.Float64("mem", 0.3, "cluster memory as a fraction of the site's data set")
		load     = flag.Float64("load", 30, "trace time-compression factor (offered load)")
		gdsf     = flag.Bool("gdsf", false, "use GDSF demand caches instead of LRU")
		list     = flag.Bool("list", false, "list experiment ids and exit")
	)
	flag.Parse()
	if *backends <= 0 {
		fmt.Fprintf(os.Stderr, "prord-sim: -backends must be positive, got %d\n", *backends)
		os.Exit(1)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{{"scale", *scale}, {"mem", *memFrac}, {"load", *load}} {
		if !(f.v > 0) || math.IsInf(f.v, 1) {
			fmt.Fprintf(os.Stderr, "prord-sim: -%s must be positive and finite, got %v\n", f.name, f.v)
			os.Exit(1)
		}
	}
	// The runner takes a memory fraction above 4 for a slip and runs its
	// default instead, which would print the default's tables.
	if *memFrac > 4 {
		fmt.Fprintf(os.Stderr, "prord-sim: -mem must be at most 4, got %v\n", *memFrac)
		os.Exit(1)
	}

	if *list {
		fmt.Println(strings.Join(experiment.IDs(), "\n"))
		return
	}

	opt := experiment.DefaultOptions()
	opt.Scale = *scale
	opt.Seed = *seed
	opt.Backends = *backends
	opt.MemoryFraction = *memFrac
	opt.LoadFactor = *load
	opt.UseGDSF = *gdsf
	r := experiment.NewRunner(opt)

	var tables []*experiment.Table
	var err error
	switch *exp {
	case "all":
		tables, err = r.All()
	case "extras":
		tables, err = r.Extras()
	default:
		var t *experiment.Table
		if t, err = r.ByID(*exp); t != nil {
			tables = append(tables, t)
		}
	}
	for _, t := range tables {
		if _, werr := t.WriteTo(os.Stdout); werr != nil {
			fmt.Fprintln(os.Stderr, "prord-sim:", werr)
			os.Exit(1)
		}
		fmt.Println()
	}
	if requests, events := r.Simulated(); requests > 0 {
		fmt.Printf("simulated %d requests in %d events (%.4f events per request)\n",
			requests, events, float64(events)/float64(requests))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "prord-sim:", err)
		os.Exit(1)
	}
}
