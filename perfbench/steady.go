package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// benchmarkFile is the benchmark's declaration, at the root of the
// checkout the benchmark runs from.
const benchmarkFile = "BENCHMARK.json"

// declaredBounds reads each end-to-end metric's bound from
// BENCHMARK.json. A file that cannot be read or declares no bound is an
// error: without bounds no spread could be refused.
func declaredBounds() (map[string]float64, error) {
	var decl struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	b, err := os.ReadFile(benchmarkFile)
	if err != nil {
		return nil, fmt.Errorf("%w (run from the root of the checkout)", err)
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		return nil, fmt.Errorf("%s: %w", benchmarkFile, err)
	}
	bounds := map[string]float64{}
	for _, m := range decl.EndToEnd {
		if m.Bound > 0 {
			bounds[m.Name] = m.Bound
		}
	}
	if len(bounds) == 0 {
		return nil, fmt.Errorf("%s declares no end-to-end bound", benchmarkFile)
	}
	return bounds, nil
}

// runChild runs this program once more, in its own process so that its
// peak RSS is its own, and returns the result line.
func runChild(args []string) (report, error) {
	exe, err := os.Executable()
	if err != nil {
		return report{}, err
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return report{}, fmt.Errorf("%s: %w", strings.Join(args, " "), err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var rep report
	dec := json.NewDecoder(bytes.NewReader([]byte(lines[len(lines)-1])))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rep); err != nil {
		return report{}, fmt.Errorf("%s: result line: %w", strings.Join(args, " "), err)
	}
	return rep, nil
}

// compact formats each run's value to four significant digits.
func compact(v []float64) string {
	s := make([]string, len(v))
	for i, x := range v {
		s[i] = strconv.FormatFloat(x, 'g', 4, 64)
	}
	return strings.Join(s, " ")
}

// steadiness runs each named workload k times back to back, with seeds
// cfg.seed .. cfg.seed+k-1, and prints for every metric its median,
// quartiles and relative quartile spread next to its declared bound, and
// each run's share of failed operations. It returns the exit code: 1 if
// a run had a failed operation or was incorrect, a metric has no bound,
// or a spread exceeds its bound.
func steadiness(names []string, k int, cfg config) int {
	bounds, err := declaredBounds()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	code := 0
	for _, name := range names {
		values := map[string][]float64{}
		units := map[string]string{}
		var shares []string
		for i := 0; i < k; i++ {
			rep, err := runChild([]string{
				"-workload", name, "-seed", strconv.FormatInt(cfg.seed+int64(i), 10),
				"-seconds", strconv.Itoa(cfg.seconds), "-trace", "0", "-out", cfg.outDir,
			})
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
				return 1
			}
			if !rep.Correct || rep.Failed > 0 {
				code = 1
			}
			shares = append(shares, fmt.Sprintf("%d/%d", rep.Failed, rep.Attempted))
			for m, v := range rep.Metrics {
				values[m] = append(values[m], v.Value)
				units[m] = v.Unit
			}
		}
		fmt.Printf("%s: %d runs, failed/attempted %s\n", name, k, strings.Join(shares, " "))
		fmt.Printf("  %-18s %12s %12s %12s %8s %7s\n", "metric", "q1", "median", "q3", "spread", "bound")
		metrics := make([]string, 0, len(values))
		for m := range values {
			metrics = append(metrics, m)
		}
		sort.Strings(metrics)
		for _, m := range metrics {
			q1, q2, q3, err := quartiles(values[m])
			if err != nil {
				fmt.Printf("  %-18s %v\n", m, err)
				continue
			}
			spread := (q3 - q1) / q2
			mark := "-"
			if bound, ok := bounds[m]; !ok {
				code = 1
			} else if mark = strconv.FormatFloat(bound, 'g', -1, 64); spread > bound {
				mark += " !"
				code = 1
			}
			fmt.Printf("  %-18s %12.6g %12.6g %12.6g %8.4f %7s  %-4s %s\n", m, q1, q2, q3, spread, mark, units[m], compact(values[m]))
			if math.IsNaN(spread) {
				code = 1
			}
		}
	}
	return code
}
