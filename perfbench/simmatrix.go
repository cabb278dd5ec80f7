package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"flexsnoop"
	"flexsnoop/internal/service"
)

// matrixOps is the reference count per core of every matrix cell. At it
// a cell of the default 32-core machine takes about 20-160 ms on one
// core, so one matrix of 91 cells is a round of about 9 s.
const matrixOps = 1000

// Input streams of seedFor: each stream of inputs gets seeds no other
// stream shares.
const (
	streamMatrix = iota + 1
	streamWarm
	streamFederated
	streamReplay
)

// seedFor derives the simulator seed of item i of an input stream from
// the benchmark's -seed (splitmix64 finalizer). Seeds are positive:
// Options.Seed 0 would mean the simulator's default seed.
func seedFor(seed int64, stream, i int) int64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(stream)<<40 + uint64(i)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x>>2) | 1
}

// cellRun is one completed matrix cell.
type cellRun struct {
	alg      flexsnoop.Algorithm
	workload string
	seed     int64
	res      flexsnoop.Result
	dur      time.Duration
}

func matrixOptions(seed int64) flexsnoop.Options {
	return flexsnoop.Options{OpsPerCore: matrixOps, Seed: seed}
}

// simMatrix is the Figs. 6-9 matrix run serially in-process: each round
// is all seven algorithms on all thirteen workloads at one seed, on the
// default Table 4 machine. Round r of every window uses the same seed, so
// the traced window repeats the untraced window's work.
type simMatrix struct {
	seed  int64
	cmps  int       // N, the CMPs on the ring of the default machine
	runs  []cellRun // every completed cell, in order
	first []cellRun // round 0 of the untraced window
}

// procs runs the matrix on one P. The simulator is serial; a second P
// would only run the collector's background work beside each cell, so a
// cell's wall time would depend on whether the shared host let the
// second vCPU run at that moment. On interleaved runs of the same seeds
// one P halved the spread of every timing (0.06 against 0.11-0.13).
func (m *simMatrix) procs() int { return 1 }

func (m *simMatrix) servers() []*service.Server    { return nil }
func (m *simMatrix) tearDown()                     {}
func (m *simMatrix) prepare(context.Context) error { return nil }

// setUp runs the untimed warm-up cell.
func (m *simMatrix) setUp(ctx context.Context) error {
	_, err := flexsnoop.Simulate(ctx, flexsnoop.Lazy, flexsnoop.FromWorkload(flexsnoop.Workloads()[0]),
		matrixOptions(seedFor(m.seed, streamWarm, 0)))
	return err
}

func (m *simMatrix) run(ctx context.Context, d time.Duration, pass int, tr *tracer) ([]time.Duration, int, error) {
	var lat []time.Duration
	failed := 0
	start := time.Now()
	for r := 0; r == 0 || time.Since(start) < d || len(lat) < minTailSamples; r++ {
		seed := seedFor(m.seed, streamMatrix, r)
		for _, wl := range flexsnoop.Workloads() {
			for _, alg := range flexsnoop.Algorithms() {
				id := tr.newID()
				t0 := time.Now()
				res, err := flexsnoop.Simulate(ctx, alg, flexsnoop.FromWorkload(wl), matrixOptions(seed))
				t1 := time.Now()
				tr.record(span{id: id, name: "matrix.cell", start: t0, end: t1})
				if err != nil {
					fmt.Fprintf(os.Stderr, "perfbench: %s/%s: %v\n", wl, alg, err)
					failed++
					continue
				}
				c := cellRun{alg: alg, workload: wl, seed: seed, res: res, dur: t1.Sub(t0)}
				m.runs = append(m.runs, c)
				if pass == 0 && r == 0 {
					m.first = append(m.first, c)
				}
				lat = append(lat, c.dur)
			}
		}
	}
	return lat, failed, nil
}

// check verifies every cell against the paper's properties, the
// instruction counts across algorithms, and one cell re-run for a
// DeepEqual result.
func (m *simMatrix) check(ctx context.Context) error {
	var f failures
	for _, c := range m.runs {
		f.add(checkCell(c.alg, c.res, m.cmps, matrixOps))
	}
	f.add(checkInstructions(m.runs))
	if len(m.first) > 0 {
		c := m.first[uint64(m.seed)%uint64(len(m.first))]
		again, err := flexsnoop.Simulate(ctx, c.alg, flexsnoop.FromWorkload(c.workload), matrixOptions(c.seed))
		if err != nil {
			f.add(fmt.Errorf("re-run of %s/%s: %w", c.workload, c.alg, err))
		} else {
			f.add(checkSame(fmt.Sprintf("re-run of %s/%s", c.workload, c.alg), again, c.res))
		}
	}
	return f.err()
}

func (m *simMatrix) firstRound() ([]service.JobSpec, []flexsnoop.Result) {
	specs := make([]service.JobSpec, 0, len(m.first))
	results := make([]flexsnoop.Result, 0, len(m.first))
	for _, c := range m.first {
		spec, err := service.SpecFor(c.alg, c.workload, matrixOptions(c.seed))
		if err != nil {
			panic(err) // plain named-workload options always have a spec
		}
		specs = append(specs, spec)
		results = append(results, c.res)
	}
	return specs, results
}
