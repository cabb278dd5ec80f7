package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"flexsnoop"
	"flexsnoop/internal/cache"
	"flexsnoop/internal/hotmap"
	"flexsnoop/internal/predictor"
	"flexsnoop/internal/service"
	"flexsnoop/internal/sim"
	gen "flexsnoop/internal/workload"
)

// selfPackages maps each per-layer self-time row to the import-path
// patterns whose leaf frames it counts; "p/..." matches p and the
// packages below it, as in go commands.
var selfPackages = []struct {
	row   string
	paths []string
}{
	{"protocol", []string{"flexsnoop/internal/protocol"}},
	{"cache", []string{"flexsnoop/internal/cache"}},
	{"hotmap", []string{"flexsnoop/internal/hotmap"}},
	{"sim", []string{"flexsnoop/internal/sim"}},
	{"ring", []string{"flexsnoop/internal/ring"}},
	{"predictor", []string{"flexsnoop/internal/predictor"}},
	{"memory", []string{"flexsnoop/internal/memory"}},
	{"cpu", []string{"flexsnoop/internal/cpu"}},
	{"workload", []string{"flexsnoop/internal/workload"}},
	{"checker", []string{"flexsnoop/internal/checker"}},
	{"service", []string{"flexsnoop/internal/service"}},
	{"net_http", []string{"net/http/..."}},
	{"encoding_json", []string{"encoding/json"}},
	{"runtime", []string{"runtime", "runtime/internal/...", "internal/runtime/..."}},
}

// funcPackage returns the import path of a fully qualified Go function
// name as pprof prints it, e.g. "flexsnoop/internal/hotmap" for
// "flexsnoop/internal/hotmap.(*Table[go.shape.uint64]).Get".
func funcPackage(fn string) string {
	head := fn
	if i := strings.IndexAny(head, "(["); i >= 0 {
		head = head[:i]
	}
	slash := strings.LastIndexByte(head, '/')
	if dot := strings.IndexByte(head[slash+1:], '.'); dot >= 0 {
		return head[:slash+1+dot]
	}
	return strings.TrimSpace(head)
}

// matchPackage reports whether an import path matches a pattern.
func matchPackage(path, pattern string) bool {
	if base, ok := strings.CutSuffix(pattern, "/..."); ok {
		return path == base || strings.HasPrefix(path, base+"/")
	}
	return path == pattern
}

// selfMillis sums the flat (self) milliseconds of `go tool pprof -top
// -unit=ms` output per self-time row.
func selfMillis(top []byte) (map[string]float64, error) {
	self := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(top))
	header := false
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if !header {
			header = len(f) >= 2 && f[0] == "flat" && f[1] == "flat%"
			continue
		}
		if len(f) < 6 {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "ms"), 64)
		if err != nil {
			return nil, fmt.Errorf("pprof -top line %q: %w", sc.Text(), err)
		}
		pkg := funcPackage(strings.Join(f[5:], " "))
	rows:
		for _, p := range selfPackages {
			for _, path := range p.paths {
				if matchPackage(pkg, path) {
					self[p.row] += v
					break rows
				}
			}
		}
	}
	if !header {
		return nil, fmt.Errorf("no pprof -top table in %q", top)
	}
	return self, sc.Err()
}

// selfTimeRows attributes the traced window's CPU profile by leaf-frame
// package with the toolchain's pprof, per completed job.
func selfTimeRows(ctx context.Context, profile string, jobs int, rows map[string]metric) error {
	cmd := exec.CommandContext(ctx, "go", "tool", "pprof", "-top", "-unit=ms",
		"-nodecount=1000000", "-nodefraction=0", "-edgefraction=0", profile)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("go tool pprof: %w: %s", err, stderr.String())
	}
	self, err := selfMillis(out)
	if err != nil {
		return err
	}
	for _, p := range selfPackages {
		rows[p.row+".self_ms_per_job"] = metric{self[p.row] / float64(jobs), "ms/job"}
	}
	return nil
}

// simWorkRows sums the simulated work of the first round's results. The
// counts depend only on the seed and the modelled design.
func simWorkRows(results []flexsnoop.Result, rows map[string]metric) {
	var reads, snoops, segs, lookups, l2Misses, memReads, retries uint64
	for _, r := range results {
		s := r.Stats
		reads += s.ReadRequests
		snoops += s.ReadSnoopOps + s.WriteSnoopOps
		segs += s.RingSegments
		lookups += s.PredictorLookups
		l2Misses += s.L2Misses
		memReads += s.MemReads
		retries += s.Retries
	}
	for name, v := range map[string]uint64{
		"protocol.read_requests": reads, "protocol.snoop_ops": snoops, "ring.segments": segs,
		"predictor.lookups": lookups, "cache.l2_misses": l2Misses, "memory.reads": memReads,
		"protocol.retries": retries,
	} {
		rows[name] = metric{float64(v), "count"}
	}
}

// jobSample bounds how many first-round jobs service.run_ms re-runs.
const jobSample = 14

// jobCalls is about how many times each per-job call is timed.
const jobCalls = 2000

// jobRows times the per-job calls a job server makes, on the first
// round's specs and results: resolving the spec (JobSpec.Job), the cache
// key (Job.Fingerprint), the JSON of a finished JobStatus both ways, and
// the simulation itself (flexsnoop.RunJobContext, on an evenly spaced
// sample), with its host time per simulated instruction.
func jobRows(ctx context.Context, specs []service.JobSpec, results []flexsnoop.Result, rows map[string]metric) error {
	if len(specs) == 0 {
		return fmt.Errorf("no first-round jobs")
	}
	var run []time.Duration
	var runNS, instrs float64
	for i := 0; i < jobSample && i < len(specs); i++ {
		job, err := specs[i*len(specs)/min(jobSample, len(specs))].Job()
		if err != nil {
			return err
		}
		t0 := time.Now()
		res, err := flexsnoop.RunJobContext(ctx, job)
		d := time.Since(t0)
		if err != nil {
			return err
		}
		run = append(run, d)
		runNS += float64(d)
		instrs += float64(res.Instructions)
	}
	p50, _ := percentile(run, 50)
	rows["service.run_ms"] = metric{ms(p50), "ms"}
	rows["machine.host_ns_per_instr"] = metric{runNS / instrs, "ns"}

	var specT, fpT, encT, decT []time.Duration
	for n := 0; n < jobCalls; n += len(specs) {
		for i, spec := range specs {
			t0 := time.Now()
			job, err := spec.Job()
			t1 := time.Now()
			if err != nil {
				return err
			}
			fp := job.Fingerprint()
			t2 := time.Now()
			res := results[i]
			b, err := json.Marshal(service.JobStatus{ID: "j-000001", State: service.StateDone, Fingerprint: fp, Result: &res})
			t3 := time.Now()
			if err != nil {
				return err
			}
			var st service.JobStatus
			err = json.Unmarshal(b, &st)
			t4 := time.Now()
			if err != nil {
				return err
			}
			specT = append(specT, t1.Sub(t0))
			fpT = append(fpT, t2.Sub(t1))
			encT = append(encT, t3.Sub(t2))
			decT = append(decT, t4.Sub(t3))
		}
	}
	us := func(d []time.Duration) float64 {
		v, _ := percentile(d, 50)
		return float64(v) / float64(time.Microsecond)
	}
	rows["spec.job_us"] = metric{us(specT), "us"}
	rows["flexsnoop.fingerprint_us"] = metric{us(fpT), "us"}
	rows["result.encode_us"] = metric{us(encT), "us"}
	rows["result.decode_us"] = metric{us(decT), "us"}
	return nil
}

// Replay rows drive each simulator layer's public API with the reference
// streams of the matrix's workloads: replayCores cores of each workload,
// replayOps references each, from the workload generator itself.
const (
	replayOps   = 2000
	replayCores = 4
	replayReps  = 5      // each row reports the median of this many passes
	replayEvent = 200000 // kernel events per pass
	eventsLive  = 64     // events in flight at once
)

// eventBand are the latencies the kernel schedules most (Table 4): the
// ring hop, the CMP bus, and the memory round trips.
var eventBand = []sim.Time{39, 55, 312, 710}

// referenceStreams returns the replayed address streams.
func referenceStreams(seed int64) [][]gen.Op {
	var out [][]gen.Op
	for _, p := range gen.Profiles() {
		for core := 0; core < replayCores; core++ {
			g := gen.NewGenerator(p, core, replayOps, seedFor(seed, streamReplay, 0))
			var ops []gen.Op
			for op, ok := g.Next(); ok; op, ok = g.Next() {
				ops = append(ops, op)
			}
			out = append(out, ops)
		}
	}
	return out
}

// medianNS times replayReps passes of pass, which performs ops
// operations each time, and returns the median nanoseconds per operation.
func medianNS(ops int, pass func()) float64 {
	per := make([]float64, replayReps)
	for i := range per {
		t0 := time.Now()
		pass()
		per[i] = float64(time.Since(t0)) / float64(ops)
	}
	return median(per)
}

// replayRows adds the per-layer replay rows.
func replayRows(seed int64, rows map[string]metric) {
	streams := referenceStreams(seed)
	total := 0
	for _, s := range streams {
		total += len(s)
	}

	rows["workload.next_ns"] = metric{medianNS(total, func() {
		for _, p := range gen.Profiles() {
			for core := 0; core < replayCores; core++ {
				g := gen.NewGenerator(p, core, replayOps, seedFor(seed, streamReplay, 0))
				for _, ok := g.Next(); ok; _, ok = g.Next() {
				}
			}
		}
	}), "ns"}

	l2 := flexsnoop.DefaultMachine().L2
	var hits, accesses int
	rows["cache.array_access_ns"] = metric{medianNS(total, func() {
		hits, accesses = 0, 0
		for _, s := range streams {
			a := cache.NewArray(l2)
			for _, op := range s {
				accesses++
				if a.Access(op.Addr) != nil {
					hits++
					continue
				}
				st := cache.Shared
				if op.Store {
					st = cache.Dirty
				}
				a.Insert(op.Addr, st, 0)
			}
		}
	}), "ns"}
	rows["cache.array_hit_ratio"] = metric{float64(hits) / float64(accesses), "ratio"}

	presets := flexsnoop.Predictors()
	sub := presets["Sub2k"]
	rows["cache.tagarray_access_ns"] = metric{medianNS(total, func() {
		for _, s := range streams {
			t := cache.NewTagArray(sub.Entries/sub.Assoc, sub.Assoc)
			for _, op := range s {
				if !t.Access(op.Addr) {
					t.Insert(op.Addr)
				}
			}
		}
	}), "ns"}

	hotmapRows(streams, total, rows)

	for _, p := range []struct{ row, preset string }{
		{"predictor.subset_ns", "Sub2k"},
		{"predictor.superset_ns", "Supy2k"},
		{"predictor.exact_ns", "Exa2k"},
	} {
		cfg := presets[p.preset]
		rows[p.row] = metric{medianNS(total, func() {
			for _, s := range streams {
				pr := predictor.New(cfg, nil)
				for _, op := range s {
					if !pr.Predict(op.Addr) {
						pr.Insert(op.Addr)
					}
				}
			}
		}), "ns"}
	}

	rows["sim.event_ns"] = metric{kernelNS(seed), "ns"}
}

// hotmapRows times Upsert, Get and Delete of every address of each
// stream, in that order, on a table sized for the stream.
func hotmapRows(streams [][]gen.Op, total int, rows map[string]metric) {
	var up, get, del []float64
	for r := 0; r < replayReps; r++ {
		var tu, tg, td time.Duration
		for _, s := range streams {
			t := hotmap.New[uint64](len(s))
			t0 := time.Now()
			for _, op := range s {
				*t.Upsert(uint64(op.Addr))++
			}
			t1 := time.Now()
			for _, op := range s {
				t.Get(uint64(op.Addr))
			}
			t2 := time.Now()
			for _, op := range s {
				t.Delete(uint64(op.Addr))
			}
			t3 := time.Now()
			tu, tg, td = tu+t1.Sub(t0), tg+t2.Sub(t1), td+t3.Sub(t2)
		}
		up = append(up, float64(tu)/float64(total))
		get = append(get, float64(tg)/float64(total))
		del = append(del, float64(td)/float64(total))
	}
	rows["hotmap.upsert_ns"] = metric{median(up), "ns"}
	rows["hotmap.get_ns"] = metric{median(get), "ns"}
	rows["hotmap.delete_ns"] = metric{median(del), "ns"}
}

// kernelNS times Kernel.After plus dispatch: eventsLive chains of events,
// each event scheduling the next of its chain with a delay drawn from
// eventBand, until replayEvent events have run.
func kernelNS(seed int64) float64 {
	rng := rand.New(rand.NewSource(seedFor(seed, streamReplay, 1)))
	delays := make([]sim.Time, 4096)
	for i := range delays {
		delays[i] = eventBand[rng.Intn(len(eventBand))]
	}
	return medianNS(replayEvent, func() {
		k := sim.NewKernel()
		fired := 0
		var fire func()
		fire = func() {
			fired++
			if fired+eventsLive <= replayEvent {
				k.After(delays[fired%len(delays)], fire)
			}
		}
		for i := 0; i < eventsLive; i++ {
			k.After(delays[i], fire)
		}
		k.RunAll()
	})
}
