package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"syscall"
	"time"

	"flexsnoop"
	"flexsnoop/internal/service"
)

// setupReps is how many times a run sets its workload up; setup_s is the
// median, so neither the cold first set-up nor a moment of host noise
// decides the figure. The first setupBefore set-ups run before the
// measured window and the rest after it, so the set-ups sample the host
// over the whole run, as the window's latencies do.
const (
	setupReps   = 11
	setupBefore = 6
)

// statsPeriod paces the Server.Stats samples of a traced window.
const statsPeriod = 50 * time.Millisecond

// workload is one named input set of the benchmark.
type workload interface {
	// procs is the GOMAXPROCS the workload runs at; 0 keeps the
	// runtime's default, one per CPU.
	procs() int
	// prepare computes, before any set-up and untimed, what the checks
	// need to know in advance.
	prepare(ctx context.Context) error
	// setUp takes the program from nothing to ready for the first timed
	// operation. A run sets up setupReps times, with tearDown between.
	setUp(ctx context.Context) error
	// tearDown stops everything setUp started and waits for it; with
	// nothing set up it does nothing.
	tearDown()
	// run is one measured window: closed-loop whole rounds of operations
	// until at least d has passed and at least minTailSamples operations
	// completed. pass is 0 for the untraced window and 1 for the traced
	// one; tr is nil when untraced. It returns one latency per completed
	// operation and the number that failed.
	run(ctx context.Context, d time.Duration, pass int, tr *tracer) (lat []time.Duration, failed int, err error)
	// check verifies every output the windows produced, apart from the
	// program's own checks.
	check(ctx context.Context) error
	// firstRound returns the job specs of the first round at -seed and
	// their results: the deterministic input of the per-layer job rows.
	firstRound() ([]service.JobSpec, []flexsnoop.Result)
	// servers returns the in-process servers, the client-facing one
	// first; none for a workload without the service.
	servers() []*service.Server
}

// window is what one measured window did and cost.
type window struct {
	jobs, failed int
	lat          []time.Duration
	wall, cpu    time.Duration
	allocBytes   uint64
	peakRSSMiB   float64
}

// usage is a snapshot of the process's clocks and counters.
type usage struct {
	wall  time.Time
	cpu   time.Duration
	alloc uint64
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

func snapshot() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	metrics.Read(allocSample)
	return usage{
		wall:  time.Now(),
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc: allocSample[0].Value.Uint64(),
	}
}

// peakRSSMiB is the process's maximum resident set so far.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
}

// measure runs one window of wl and accounts its wall time, CPU time and
// allocation.
func measure(ctx context.Context, wl workload, d time.Duration, pass int, tr *tracer) (window, error) {
	runtime.GC() // every window starts from the same collected heap
	before := snapshot()
	lat, failed, err := wl.run(ctx, d, pass, tr)
	after := snapshot()
	if err != nil {
		return window{}, err
	}
	if len(lat) == 0 {
		return window{}, errors.New("window completed no operation")
	}
	return window{
		jobs:       len(lat),
		failed:     failed,
		lat:        lat,
		wall:       after.wall.Sub(before.wall),
		cpu:        after.cpu - before.cpu,
		allocBytes: after.alloc - before.alloc,
		peakRSSMiB: peakRSSMiB(),
	}, nil
}

// runWorkload sets the workload up, measures it, checks its outputs and
// builds the report.
func runWorkload(ctx context.Context, cfg config) (report, error) {
	wl := newWorkload(cfg.workload, cfg.seed)
	if p := wl.procs(); p > 0 {
		runtime.GOMAXPROCS(p)
	}
	if err := wl.prepare(ctx); err != nil {
		return report{}, fmt.Errorf("prepare: %w", err)
	}
	defer wl.tearDown()
	var setups []float64
	setUps := func(n int) error {
		for i := 0; i < n; i++ {
			wl.tearDown()
			runtime.GC() // every set-up, like every window, starts from a collected heap
			t0 := time.Now()
			if err := wl.setUp(ctx); err != nil {
				return fmt.Errorf("set-up: %w", err)
			}
			setups = append(setups, time.Since(t0).Seconds())
		}
		return nil
	}
	if err := setUps(setupBefore); err != nil {
		return report{}, err
	}

	d := time.Duration(cfg.seconds) * time.Second
	plain, err := measure(ctx, wl, d, 0, nil)
	if err != nil {
		return report{}, err
	}
	rep := report{Attempted: plain.jobs + plain.failed, Failed: plain.failed}
	if cfg.trace {
		traced, rows, err := tracedWindow(ctx, wl, d, cfg, plain)
		if err != nil {
			return report{}, err
		}
		rep.Attempted += traced.jobs + traced.failed
		rep.Failed += traced.failed
		rep.Metrics = rows
	}
	if err := setUps(setupReps - setupBefore); err != nil {
		return report{}, err
	}
	if !cfg.trace {
		if rep.Metrics, err = endToEnd(setups, plain); err != nil {
			return report{}, err
		}
	}

	rep.Correct = true
	if err := verdict(rep.Attempted, rep.Failed, wl.check(ctx)); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		rep.Correct = false
	}
	return rep, nil
}

// verdict refuses a run in which any operation failed or an output check
// failed. No operation of any workload fails on a working program, and
// the metrics of a run with failures would describe only the operations
// that survived, so one failure makes the run incorrect.
func verdict(attempted, failed int, checkErr error) error {
	var f failures
	if failed > 0 {
		f.add(fmt.Errorf("%d of %d operations failed", failed, attempted))
	}
	if checkErr != nil {
		f.add(fmt.Errorf("output check failed: %w", checkErr))
	}
	return f.err()
}

// endToEnd derives the end-to-end metrics of an untraced window.
func endToEnd(setups []float64, w window) (map[string]metric, error) {
	p50, err := percentile(w.lat, 50)
	if err != nil {
		return nil, err
	}
	p90, err := percentile(w.lat, 90)
	if err != nil {
		return nil, err
	}
	jobs := float64(w.jobs)
	return map[string]metric{
		"setup_s":          {median(setups), "s"},
		"jobs_per_s":       {jobs / w.wall.Seconds(), "1/s"},
		"latency_p50_ms":   {ms(p50), "ms"},
		"latency_p90_ms":   {ms(p90), "ms"},
		"cpu_ms_per_job":   {ms(w.cpu) / jobs, "ms"},
		"alloc_kb_per_job": {float64(w.allocBytes) / 1024 / jobs, "KiB"},
		"peak_rss_mb":      {w.peakRSSMiB, "MiB"},
	}, nil
}

// tracedWindow repeats the window with spans recorded, the CPU profiled
// and the servers' Stats sampled, then adds the rows that need no window.
// plain is the untraced window the tracing overhead is measured against.
func tracedWindow(ctx context.Context, wl workload, d time.Duration, cfg config, plain window) (window, map[string]metric, error) {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return window{}, nil, err
	}
	base := filepath.Join(cfg.outDir, fmt.Sprintf("%s-seed%d", cfg.workload, cfg.seed))
	prof, err := os.Create(base + ".cpu.pprof")
	if err != nil {
		return window{}, nil, err
	}
	defer prof.Close()

	tr := newTracer()
	smp := startSampler(wl.servers())
	if err := pprof.StartCPUProfile(prof); err != nil {
		smp.stop()
		return window{}, nil, err
	}
	traced, err := measure(ctx, wl, d, 1, tr)
	pprof.StopCPUProfile()
	smp.stop()
	if err != nil {
		return window{}, nil, err
	}
	if err := prof.Close(); err != nil {
		return window{}, nil, err
	}

	rows := map[string]metric{}
	if err := selfTimeRows(ctx, prof.Name(), traced.jobs, rows); err != nil {
		return window{}, nil, err
	}
	clientRows(tr, traced.jobs, rows)
	smp.rows(float64(traced.jobs)/traced.wall.Seconds(), rows)
	specs, results := wl.firstRound()
	simWorkRows(results, rows)
	if err := jobRows(ctx, specs, results, rows); err != nil {
		return window{}, nil, err
	}
	replayRows(cfg.seed, rows)
	overheadRows(plain, traced, rows)

	if err := tr.write(base + ".trace.json"); err != nil {
		return window{}, nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: spans in %s.trace.json, CPU profile in %s.cpu.pprof\n", base, base)
	return traced, rows, nil
}

// overheadRows compares the traced window with the untraced one.
func overheadRows(plain, traced window, rows map[string]metric) {
	pct := func(a, b float64) float64 { return (b/a - 1) * 100 }
	p0, _ := percentile(plain.lat, 50)
	p1, _ := percentile(traced.lat, 50)
	rows["trace.overhead_latency_pct"] = metric{pct(ms(p0), ms(p1)), "%"}
	rows["trace.overhead_cpu_pct"] = metric{pct(
		ms(plain.cpu)/float64(plain.jobs), ms(traced.cpu)/float64(traced.jobs)), "%"}
}

// sampler polls Server.Stats of every in-process server at statsPeriod
// for the length of a traced window.
type sampler struct {
	srvs  []*service.Server
	quit  chan struct{}
	done  chan struct{}
	depth []depthSampler // per server
	busy  []depthSampler
	first service.Stats // client-facing server, at start and stop
	last  service.Stats
}

func startSampler(srvs []*service.Server) *sampler {
	s := &sampler{
		srvs:  srvs,
		quit:  make(chan struct{}),
		done:  make(chan struct{}),
		depth: make([]depthSampler, len(srvs)),
		busy:  make([]depthSampler, len(srvs)),
	}
	if len(srvs) == 0 {
		close(s.done)
		return s
	}
	s.first = srvs[0].Stats()
	go func() {
		defer close(s.done)
		t := time.NewTicker(statsPeriod)
		defer t.Stop()
		for {
			select {
			case <-s.quit:
				return
			case <-t.C:
				for i, srv := range s.srvs {
					st := srv.Stats()
					s.depth[i].add(st.QueueDepth)
					s.busy[i].add(st.BusyWorkers)
				}
			}
		}
	}()
	return s
}

// stop ends the sampling goroutine, waits for it, and takes the closing
// snapshot. It is called once.
func (s *sampler) stop() {
	close(s.quit)
	<-s.done
	if len(s.srvs) > 0 {
		s.last = s.srvs[0].Stats()
	}
}

// rows adds the service rows: queue wait by Little's law summed over the
// servers a job passes through, mean busy workers, and the client-facing
// server's cache hit ratio over the window. throughput is the window's
// completed jobs per second.
func (s *sampler) rows(throughput float64, rows map[string]metric) {
	var wait time.Duration
	var busy float64
	for i := range s.srvs {
		wait += littleWait(s.depth[i].mean(), throughput)
		busy += s.busy[i].mean()
	}
	hits := float64(s.last.CacheHits - s.first.CacheHits)
	misses := float64(s.last.CacheMisses - s.first.CacheMisses)
	ratio := 0.0
	if hits+misses > 0 {
		ratio = hits / (hits + misses)
	}
	rows["service.queue_wait_ms"] = metric{ms(wait), "ms"}
	rows["service.busy_workers_mean"] = metric{busy, "workers"}
	rows["service.cache_hit_ratio"] = metric{ratio, "ratio"}
}
