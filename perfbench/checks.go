package main

import (
	"errors"
	"fmt"
	"math"
	"reflect"

	"flexsnoop"
	"flexsnoop/internal/energy"
)

// maxReported bounds how many check failures one error lists.
const maxReported = 8

// failures collects check failures, keeping the first maxReported.
type failures struct {
	errs  []error
	count int
}

func (f *failures) add(err error) {
	if err == nil {
		return
	}
	f.count++
	if len(f.errs) < maxReported {
		f.errs = append(f.errs, err)
	}
}

func (f *failures) err() error {
	if f.count == 0 {
		return nil
	}
	if f.count > len(f.errs) {
		f.errs = append(f.errs, fmt.Errorf("and %d more", f.count-len(f.errs)))
	}
	return errors.Join(f.errs...)
}

// checkCell verifies the properties the paper's algorithms guarantee for
// one matrix cell (Sections 3-4), computed from the cell's counters alone:
//
//   - Eager snoops at every other node and forwards each read request all
//     the way round: (N-1) snoops and 2N-1 ring segments per request.
//   - Lazy, Oracle, SupersetCon and Exact send each read request round
//     the ring once: N segments.
//   - Subset and SupersetAgg forward some requests eagerly and some not:
//     strictly between N and 2N-1 segments per request.
//   - Oracle and Exact snoop at most once per read request.
//   - The superset and exact predictors never miss a supplier.
//   - Every core the workload's class uses (all four per CMP for SPLASH-2,
//     one per CMP for SPEC) issues exactly its ops loads and stores.
//   - The energy breakdown sums to the total.
//
// cmps is N, the number of CMPs on the ring.
func checkCell(alg flexsnoop.Algorithm, res flexsnoop.Result, cmps int, ops uint64) error {
	var f failures
	fail := func(format string, a ...any) {
		f.add(fmt.Errorf("%s/%s: "+format, append([]any{res.Workload, alg}, a...)...))
	}
	s := res.Stats
	n, rr := uint64(cmps), s.ReadRequests
	if rr == 0 {
		fail("no read requests")
	}
	switch alg {
	case flexsnoop.Eager:
		if s.ReadSnoopOps != (n-1)*rr {
			fail("%d read snoops, want (N-1)×%d = %d", s.ReadSnoopOps, rr, (n-1)*rr)
		}
		if s.ReadRingSegments != (2*n-1)*rr {
			fail("%d read ring segments, want (2N-1)×%d = %d", s.ReadRingSegments, rr, (2*n-1)*rr)
		}
	case flexsnoop.Lazy, flexsnoop.Oracle, flexsnoop.SupersetCon, flexsnoop.Exact:
		if s.ReadRingSegments != n*rr {
			fail("%d read ring segments, want N×%d = %d", s.ReadRingSegments, rr, n*rr)
		}
	case flexsnoop.Subset, flexsnoop.SupersetAgg:
		if s.ReadRingSegments <= n*rr || s.ReadRingSegments >= (2*n-1)*rr {
			fail("%d read ring segments, want strictly between N×%d and (2N-1)×%d", s.ReadRingSegments, rr, rr)
		}
	}
	switch alg {
	case flexsnoop.Oracle, flexsnoop.Exact:
		if s.ReadSnoopOps > rr {
			fail("%d read snoops for %d read requests, want at most one each", s.ReadSnoopOps, rr)
		}
	}
	switch alg {
	case flexsnoop.SupersetCon, flexsnoop.SupersetAgg, flexsnoop.Exact:
		if s.Accuracy.FalseNeg != 0 {
			fail("%d predictor false negatives, want 0", s.Accuracy.FalseNeg)
		}
	}
	if prof, err := flexsnoop.WorkloadByName(res.Workload); err != nil {
		fail("%v", err)
	} else if cores := cmps * prof.Class.CoresPerCMP(); s.Loads+s.Stores != ops*uint64(cores) {
		fail("%d loads + %d stores, want %d ops × %d cores", s.Loads, s.Stores, ops, cores)
	}
	sum := 0.0
	for _, c := range energy.Categories() {
		sum += res.EnergyBreakdown[c]
	}
	if len(res.EnergyBreakdown) != len(energy.Categories()) ||
		math.Abs(sum-res.EnergyNJ) > 1e-9*math.Max(1, math.Abs(res.EnergyNJ)) {
		fail("energy breakdown %v sums to %g, want EnergyNJ %g", res.EnergyBreakdown, sum, res.EnergyNJ)
	}
	return f.err()
}

// cellKey names a workload at one seed.
type cellKey struct {
	workload string
	seed     int64
}

// checkInstructions verifies that every algorithm retires the same
// instructions for one workload and seed: the snooping algorithm changes
// timing, never the programs the cores run.
func checkInstructions(runs []cellRun) error {
	var f failures
	first := map[cellKey]cellRun{}
	for _, c := range runs {
		k := cellKey{c.workload, c.seed}
		ref, ok := first[k]
		if !ok {
			first[k] = c
			continue
		}
		if c.res.Instructions != ref.res.Instructions {
			f.add(fmt.Errorf("%s seed %d: %s retired %d instructions, %s %d",
				c.workload, c.seed, c.alg, c.res.Instructions, ref.alg, ref.res.Instructions))
		}
	}
	return f.err()
}

// checkSame verifies that a result returned by the program equals an
// independent in-process simulation of the same job.
func checkSame(what string, got, want flexsnoop.Result) error {
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("%s: result differs from an in-process Simulate of the same job", what)
	}
	return nil
}
