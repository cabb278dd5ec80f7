package main

import (
	"context"
	"errors"
	"strings"
	"testing"

	"flexsnoop"
	"flexsnoop/internal/energy"
	"flexsnoop/internal/service"
)

const testOps = 200

// cells simulates every algorithm on one workload at testOps, once per
// test binary.
var cells = map[string]map[flexsnoop.Algorithm]flexsnoop.Result{}

func cell(t *testing.T, wl string, alg flexsnoop.Algorithm) flexsnoop.Result {
	t.Helper()
	if cells[wl] == nil {
		cells[wl] = map[flexsnoop.Algorithm]flexsnoop.Result{}
	}
	if res, ok := cells[wl][alg]; ok {
		return copyResult(res)
	}
	res, err := flexsnoop.Simulate(context.Background(), alg, flexsnoop.FromWorkload(wl),
		flexsnoop.Options{OpsPerCore: testOps, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	cells[wl][alg] = res
	return copyResult(res)
}

// copyResult deep-copies the one reference field of a Result, so a test
// can mutate its copy.
func copyResult(r flexsnoop.Result) flexsnoop.Result {
	b := make(map[energy.Category]float64, len(r.EnergyBreakdown))
	for k, v := range r.EnergyBreakdown {
		b[k] = v
	}
	r.EnergyBreakdown = b
	return r
}

const testCMPs = 8

func TestCheckCellAcceptsRealCells(t *testing.T) {
	for _, wl := range []string{"specweb", "barnes"} {
		for _, alg := range flexsnoop.Algorithms() {
			if err := checkCell(alg, cell(t, wl, alg), testCMPs, testOps); err != nil {
				t.Errorf("%s/%s: %v", wl, alg, err)
			}
		}
	}
}

// TestCheckCellRejects shows each property check can fail: a real cell
// with one counter broken must be refused, with the property named.
func TestCheckCellRejects(t *testing.T) {
	for _, c := range []struct {
		name   string
		alg    flexsnoop.Algorithm
		mutate func(r *flexsnoop.Result)
		want   string
	}{
		{"eager snoop removed", flexsnoop.Eager, func(r *flexsnoop.Result) { r.Stats.ReadSnoopOps-- }, "read snoops"},
		{"eager segment added", flexsnoop.Eager, func(r *flexsnoop.Result) { r.Stats.ReadRingSegments++ }, "ring segments"},
		{"lazy segment added", flexsnoop.Lazy, func(r *flexsnoop.Result) { r.Stats.ReadRingSegments++ }, "ring segments"},
		{"oracle segment removed", flexsnoop.Oracle, func(r *flexsnoop.Result) { r.Stats.ReadRingSegments-- }, "ring segments"},
		{"supersetcon segment added", flexsnoop.SupersetCon, func(r *flexsnoop.Result) { r.Stats.ReadRingSegments++ }, "ring segments"},
		{"exact segment added", flexsnoop.Exact, func(r *flexsnoop.Result) { r.Stats.ReadRingSegments++ }, "ring segments"},
		{"subset all lazy", flexsnoop.Subset, func(r *flexsnoop.Result) {
			r.Stats.ReadRingSegments = testCMPs * r.Stats.ReadRequests
		}, "strictly between"},
		{"supersetagg all eager", flexsnoop.SupersetAgg, func(r *flexsnoop.Result) {
			r.Stats.ReadRingSegments = (2*testCMPs - 1) * r.Stats.ReadRequests
		}, "strictly between"},
		{"oracle two snoops", flexsnoop.Oracle, func(r *flexsnoop.Result) { r.Stats.ReadSnoopOps = r.Stats.ReadRequests + 1 }, "at most one"},
		{"exact two snoops", flexsnoop.Exact, func(r *flexsnoop.Result) { r.Stats.ReadSnoopOps = r.Stats.ReadRequests + 1 }, "at most one"},
		{"supersetcon false negative", flexsnoop.SupersetCon, func(r *flexsnoop.Result) { r.Stats.Accuracy.FalseNeg++ }, "false negatives"},
		{"supersetagg false negative", flexsnoop.SupersetAgg, func(r *flexsnoop.Result) { r.Stats.Accuracy.FalseNeg++ }, "false negatives"},
		{"exact false negative", flexsnoop.Exact, func(r *flexsnoop.Result) { r.Stats.Accuracy.FalseNeg++ }, "false negatives"},
		{"load lost", flexsnoop.Lazy, func(r *flexsnoop.Result) { r.Stats.Loads-- }, "loads"},
		{"energy category off", flexsnoop.Lazy, func(r *flexsnoop.Result) { r.EnergyBreakdown[energy.SnoopOp] += 1 }, "energy breakdown"},
		{"energy category missing", flexsnoop.Lazy, func(r *flexsnoop.Result) { delete(r.EnergyBreakdown, energy.DowngradeOp) }, "energy breakdown"},
		{"no reads", flexsnoop.Lazy, func(r *flexsnoop.Result) { r.Stats.ReadRequests, r.Stats.ReadRingSegments = 0, 0 }, "no read requests"},
	} {
		res := cell(t, "specweb", c.alg)
		c.mutate(&res)
		err := checkCell(c.alg, res, testCMPs, testOps)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one naming %q", c.name, err, c.want)
		}
	}
}

func TestCheckInstructions(t *testing.T) {
	var runs []cellRun
	for _, alg := range flexsnoop.Algorithms() {
		runs = append(runs, cellRun{alg: alg, workload: "specweb", seed: 5, res: cell(t, "specweb", alg)})
	}
	if err := checkInstructions(runs); err != nil {
		t.Fatalf("real cells: %v", err)
	}
	runs[3].res.Instructions++
	if err := checkInstructions(runs); err == nil {
		t.Errorf("one algorithm retiring an extra instruction passed")
	}
	runs[3].seed = 6 // another seed is another program
	if err := checkInstructions(runs); err != nil {
		t.Errorf("different seeds compared: %v", err)
	}
}

func TestCheckSame(t *testing.T) {
	a := cell(t, "specweb", flexsnoop.Subset)
	if err := checkSame("same", a, cell(t, "specweb", flexsnoop.Subset)); err != nil {
		t.Errorf("identical results: %v", err)
	}
	b := cell(t, "specweb", flexsnoop.Subset)
	b.Cycles++
	if checkSame("cycles", b, a) == nil {
		t.Errorf("results one cycle apart passed")
	}
	c := cell(t, "specweb", flexsnoop.Subset)
	c.EnergyBreakdown[energy.RingLink] *= 1.0000001
	if checkSame("energy", c, a) == nil {
		t.Errorf("results with different energy passed")
	}
}

func TestFailuresKeepsTheFirstFew(t *testing.T) {
	var f failures
	if f.err() != nil {
		t.Fatalf("no failure reported an error")
	}
	for i := 0; i < maxReported+3; i++ {
		f.add(checkSame("x", flexsnoop.Result{Cycles: 1}, flexsnoop.Result{}))
	}
	f.add(nil)
	msg := f.err().Error()
	if !strings.Contains(msg, "and 3 more") || strings.Count(msg, "\n") != maxReported {
		t.Errorf("failure summary = %q", msg)
	}
}

func TestSameAsSimulate(t *testing.T) {
	opts := flexsnoop.Options{OpsPerCore: testOps, Seed: 5}
	spec, err := service.SpecFor(flexsnoop.Exact, "specweb", opts)
	if err != nil {
		t.Fatal(err)
	}
	j := serviceJob{spec: spec, res: cell(t, "specweb", flexsnoop.Exact)}
	if err := sameAsSimulate(context.Background(), j); err != nil {
		t.Errorf("a true result: %v", err)
	}
	j.res.Stats.ReadSnoopOps++
	if sameAsSimulate(context.Background(), j) == nil {
		t.Errorf("a result with one snoop added passed")
	}
}

func TestVerdict(t *testing.T) {
	if err := verdict(100, 0, nil); err != nil {
		t.Errorf("a clean run: %v", err)
	}
	if verdict(100, 1, nil) == nil {
		t.Errorf("a run with one failed operation passed")
	}
	if verdict(100, 0, errors.New("check")) == nil {
		t.Errorf("a run with a failed check passed")
	}
}
