// Command tracegen emits synthetic web traces in Common Log Format,
// statistically matched to the workloads of the PRORD paper's evaluation
// (Texas A&M CS department, WorldCup-98, fully synthetic).
//
// Usage:
//
//	tracegen -workload cs -scale 1.0 -seed 42 > cs.log
//	tracegen -workload worldcup -scale 0.01 -o wc.log
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"prord"
)

func main() {
	var (
		workload = flag.String("workload", "synthetic", "one of: cs, worldcup, synthetic")
		scale    = flag.Float64("scale", 1.0, "fraction of the paper's request count")
		seed     = flag.Int64("seed", 42, "generation seed")
		out      = flag.String("o", "-", "output file ('-' = stdout)")
	)
	flag.Parse()
	if !(*scale > 0) || math.IsInf(*scale, 1) {
		fmt.Fprintf(os.Stderr, "tracegen: -scale must be positive and finite, got %g\n", *scale)
		os.Exit(1)
	}

	w := os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tracegen:", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	n, err := prord.WriteSyntheticTrace(w, *workload, *scale, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "tracegen: wrote %d requests (%s, scale %g, seed %d)\n",
		n, *workload, *scale, *seed)
}
