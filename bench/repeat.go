package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// childResult is the last line a run prints.
type childResult struct {
	Correct bool `json:"correct"`
	Failed  int  `json:"failed"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// runChild measures one workload in a process of its own, as the driver
// does: peak memory and the heap's history are per process.
func runChild(exe, workload string, seed int64, seconds int) (*childResult, error) {
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.Itoa(seconds))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res childResult
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: last line is not a result: %w", workload, seed, err)
	}
	if !res.Correct || res.Failed != 0 {
		return nil, fmt.Errorf("%s seed %d: incorrect run:\n%s", workload, seed, out)
	}
	return &res, nil
}

// repeatability runs two interleaved sets of n passes of this same
// build, pass i of either set on seed i, and prints for every workload
// and end-to-end metric both medians, their relative difference and the
// bound, as a Markdown table. It returns the exit code: 1 when a
// difference exceeds its bound — the benchmark then cannot tell a
// regression of that size from noise.
func repeatability(n, seconds int) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	// values[set][workload][metric] collects one value per pass.
	var values [2]map[string]map[string][]float64
	for set := range values {
		values[set] = make(map[string]map[string][]float64)
		for _, w := range workloads {
			values[set][w.name] = make(map[string][]float64)
		}
	}
	for pass := 1; pass <= n; pass++ {
		for set := range values {
			for _, w := range workloads {
				fmt.Fprintf(os.Stderr, "pass %d/%d set %c %s\n", pass, n, 'A'+set, w.name)
				res, err := runChild(exe, w.name, int64(pass), seconds)
				if err != nil {
					fmt.Fprintln(os.Stderr, "bench:", err)
					return 1
				}
				for _, m := range endToEnd {
					values[set][w.name][m.name] = append(values[set][w.name][m.name], res.Metrics[m.name].Value)
				}
			}
		}
	}
	fmt.Printf("Two interleaved sets of %d passes of one build, pass i of either set on seed i, -seconds %d.\n", n, seconds)
	fmt.Printf("diff is |B - A| / A of the medians; spread is the interquartile range over the median within a set.\n\n")
	fmt.Println("| workload | metric | unit | median A | median B | diff | bound | spread A | spread B | |")
	fmt.Println("|---|---|---|---:|---:|---:|---:|---:|---:|---|")
	code := 0
	for _, w := range workloads {
		for _, m := range endToEnd {
			a, b := values[0][w.name][m.name], values[1][w.name][m.name]
			ma, mb := median(a), median(b)
			diff := math.Abs(ratio(mb-ma, ma))
			verdict := "ok"
			if diff > m.bound {
				verdict = "EXCEEDS"
				code = 1
			}
			fmt.Printf("| %s | %s | %s | %.6g | %.6g | %.4f | %.3f | %.4f | %.4f | %s |\n",
				w.name, m.name, m.unit, ma, mb, diff, m.bound, quartileSpread(a), quartileSpread(b), verdict)
		}
	}
	return code
}
