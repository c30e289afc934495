// University-site scenario: the paper's motivating example (§3.1) — a
// department web site whose users fall into groups (current students,
// prospective students, faculty, staff, others) with distinctive
// navigation patterns.
//
// The example mines a CS-department-like access log, shows what the miner
// learns (bundle quality and a next-page prediction), then reruns Fig.
// 9's per-enhancement ablation on the same workload.
//
//	go run ./examples/university-site
package main

import (
	"fmt"
	"log"

	"prord"
	"prord/internal/mining"
	"prord/internal/trace"
)

func main() {
	// Generate the CS-department workload and mine its training prefix —
	// the same pipeline the simulator uses, shown step by step.
	site, full, err := trace.GeneratePreset(trace.PresetCS, 0.2, 7)
	if err != nil {
		log.Fatal(err)
	}
	train, _ := full.Split(0.4)
	miner := mining.Mine(train, mining.DefaultOptions())

	stats := full.Stats()
	fmt.Printf("workload: %d requests, %d files, %d sessions, %.0f%% embedded objects\n",
		stats.Requests, stats.Files, stats.Sessions, 100*stats.EmbeddedFrac)
	fmt.Printf("miner:    %s\n\n", miner.Summary())

	// Bundle mining quality against the generator's ground truth (§3.2).
	precision, recall := miner.Bundles.Score(site.Bundles())
	fmt.Printf("bundle mining: precision %.2f, recall %.2f\n", precision, recall)

	// Next-page prediction (Algorithm 2's input).
	pred, ok := miner.Model.Predict([]string{site.Pages[0].Path})
	if ok {
		fmt.Printf("after %s the model predicts %s (confidence %.2f)\n",
			site.Pages[0].Path, pred.Page, pred.Confidence)
	}

	// Fig. 9: which enhancement buys what on this site?
	fmt.Println("\nrerunning Fig. 9 (individual enhancements, CS trace)...")
	opt := prord.DefaultOptions()
	opt.Scale = 0.2
	rep, err := prord.RunExperiment("fig9", opt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(rep)
}
