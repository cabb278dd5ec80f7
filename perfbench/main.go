// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload in this process — the paper's figure matrix through
// flexsnoop.Simulate, or cold jobs through an in-process ringsimd
// coordinator and worker — checks every output against the paper's
// properties or an independent in-process simulation, and prints its
// metrics. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run repeats its window traced and profiled and prints the per-layer
// ones instead. -steady k runs each workload k times in child processes
// and prints each metric's quartiles next to its bound. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

// metric is one named figure of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	outDir   string
}

func main() { os.Exit(run()) }

func run() int {
	var (
		cfg    config
		trace  int
		steady int
	)
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "seed from which the workload's inputs are generated")
	flag.IntVar(&cfg.seconds, "seconds", 45, "length of the measured window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the window untraced and then traced, and prints the per-layer metrics")
	flag.IntVar(&steady, "steady", 0, "run each workload (or -workload alone) this many times, with seeds seed..seed+k-1, and print each metric's spread")
	flag.StringVar(&cfg.outDir, "out", ".bench_build/traces", "directory for span traces and CPU profiles")
	flag.Parse()
	if flag.NArg() != 0 || cfg.seconds < 1 || (trace != 0 && trace != 1) {
		flag.Usage()
		return 2
	}
	cfg.trace = trace == 1

	if steady > 0 {
		names := workloadNames()
		if cfg.workload != "" {
			names = []string{cfg.workload}
		}
		return steadiness(names, steady, cfg)
	}
	if newWorkload(cfg.workload, cfg.seed) == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown -workload %q (want one of %s)\n",
			cfg.workload, strings.Join(workloadNames(), ", "))
		return 2
	}

	rep, err := runWorkload(context.Background(), cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	if err := printReport(rep); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	if !rep.Correct {
		return 1
	}
	return 0
}

// printReport writes one readable line per metric and then the JSON
// result line, which must be the last line of standard output.
func printReport(rep report) error {
	line, err := json.Marshal(rep)
	if err != nil {
		return err // a metric that is not a finite number
	}
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("correct=%v attempted=%d failed=%d\n", rep.Correct, rep.Attempted, rep.Failed)
	for _, n := range names {
		m := rep.Metrics[n]
		fmt.Printf("  %-34s %14.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Println(string(line))
	return nil
}
