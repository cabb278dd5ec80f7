package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"flexsnoop"
	"flexsnoop/internal/service"
)

// loadClients is the number of closed-loop clients of a service
// workload, and the number of client connections they share: the host
// has two cores, and one simulation at a time per core keeps the
// measurement about the program rather than the scheduler.
const loadClients = 2

// federatedOps is the job size of service-federated: each cold job
// simulates in a few milliseconds, so the service, not the simulator,
// sets the pace.
const federatedOps = 100

// federatedWorkloads are the SPEC streams, the cheapest to simulate.
var federatedWorkloads = []string{"specjbb", "specweb"}

// node is one in-process ringsimd: a service.Server behind an HTTP
// server on a loopback port.
type node struct {
	srv    *service.Server
	hs     *http.Server
	url    string
	served chan struct{}
}

func startNode(cfg service.Config) (*node, error) {
	srv, err := service.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	n := &node{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		url:    "http://" + ln.Addr().String(),
		served: make(chan struct{}),
	}
	go func() {
		defer close(n.served)
		_ = n.hs.Serve(ln) // returns http.ErrServerClosed once stop closes it
	}()
	return n, nil
}

// stop closes the listener and its connections, waits for the serving
// goroutine, and drains the job server.
func (n *node) stop() {
	n.hs.Close()
	<-n.served
	n.srv.Drain(0)
}

// newTransport returns the client transport shared by the load clients:
// at most loadClients connections, all kept alive.
func newTransport() *http.Transport {
	return &http.Transport{MaxConnsPerHost: loadClients, MaxIdleConnsPerHost: loadClients}
}

// newClient returns a stock service client over the shared transport,
// recording its HTTP calls as spans when tr is not nil.
func newClient(url string, t *http.Transport, tr *tracer) *service.Client {
	var rt http.RoundTripper = t
	if tr != nil {
		rt = &tracingTransport{base: t, tr: tr}
	}
	return &service.Client{BaseURL: url, HTTPClient: &http.Client{Transport: rt}}
}

// loopOn reports whether a closed-loop client that has attempted k
// operations, in rounds of round, goes on: it stops only at a round
// boundary, once d has passed since start and it has attempted need.
func loopOn(k, round, need int, start time.Time, d time.Duration) bool {
	return k%round != 0 || k == 0 || k < need || time.Since(start) < d
}

// closedLoop runs loadClients goroutines, each calling op for k = 0, 1,
// ... while loopOn holds, and returns every completed operation's
// latency and the number that failed. op reports its own latency, so
// work it does after the program answered stays out of the sample.
func closedLoop(ctx context.Context, d time.Duration, round int, tr *tracer,
	op func(ctx context.Context, client, k int) (time.Duration, error)) ([]time.Duration, int) {
	lat := make([][]time.Duration, loadClients)
	failed := make([]int, loadClients)
	need := (minTailSamples + loadClients - 1) / loadClients
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < loadClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; loopOn(k, round, need, start, d); k++ {
				cctx := ctx
				id := tr.newID()
				if tr != nil {
					cctx = withSpan(ctx, id, c)
				}
				t0 := time.Now()
				l, err := op(cctx, c, k)
				tr.record(span{id: id, name: "job", lane: c, start: t0, end: t0.Add(l)})
				if err != nil {
					fmt.Fprintf(os.Stderr, "perfbench: client %d op %d: %v\n", c, k, err)
					failed[c]++
					continue
				}
				lat[c] = append(lat[c], l)
			}
		}(c)
	}
	wg.Wait()
	var all []time.Duration
	nFailed := 0
	for c := range lat {
		all = append(all, lat[c]...)
		nFailed += failed[c]
	}
	return all, nFailed
}

// serviceJob is one job a service workload completed.
type serviceJob struct {
	spec service.JobSpec
	res  flexsnoop.Result
}

// federated is a coordinator with no local pool in front of one worker,
// both in-process over loopback, driven by closed-loop clients with the
// stock service.Client, each job a distinct cold spec: no cache hit and
// no dedup.
type federated struct {
	seed          int64
	worker, coord *node
	transport     *http.Transport
	mu            sync.Mutex
	done          []serviceJob // every completed job
	first         []serviceJob // each client's first round of the untraced window
}

// federatedRound is the round of one client: every algorithm on every
// federated workload.
func federatedRound() int { return len(flexsnoop.Algorithms()) * len(federatedWorkloads) }

// federatedSpec is operation k of one client in one window. Its seed is
// unique to (window, client, k), so every job is cold.
func federatedSpec(seed int64, pass, client, k int) service.JobSpec {
	algs := flexsnoop.Algorithms()
	wl := federatedWorkloads[(k/len(algs))%len(federatedWorkloads)]
	opts := flexsnoop.Options{OpsPerCore: federatedOps,
		Seed: seedFor(seed, streamFederated, (pass*loadClients+client)<<24|k)}
	spec, err := service.SpecFor(algs[k%len(algs)], wl, opts)
	if err != nil {
		panic(err) // plain named-workload options always have a spec
	}
	return spec
}

func (f *federated) procs() int                    { return 0 }
func (f *federated) prepare(context.Context) error { return nil }

func (f *federated) servers() []*service.Server {
	return []*service.Server{f.coord.srv, f.worker.srv}
}

// setUp starts the worker and the coordinator, waits until both are
// ready, and runs one cold warm-up job through them.
func (f *federated) setUp(ctx context.Context) error {
	var err error
	if f.worker, err = startNode(service.Config{}); err != nil {
		return err
	}
	if f.coord, err = startNode(service.Config{Workers: -1, Backends: []string{f.worker.url}}); err != nil {
		return err
	}
	f.transport = newTransport()
	if err := newClient(f.worker.url, f.transport, nil).Ready(ctx); err != nil {
		return fmt.Errorf("worker not ready: %w", err)
	}
	c := newClient(f.coord.url, f.transport, nil)
	if err := c.Ready(ctx); err != nil {
		return fmt.Errorf("coordinator not ready: %w", err)
	}
	warm, err := service.SpecFor(flexsnoop.Lazy, federatedWorkloads[0],
		flexsnoop.Options{OpsPerCore: federatedOps, Seed: seedFor(f.seed, streamWarm, 1)})
	if err != nil {
		return err
	}
	_, err = c.Run(ctx, warm)
	return err
}

func (f *federated) tearDown() {
	if f.coord != nil {
		f.coord.stop()
		f.coord = nil
	}
	if f.worker != nil {
		f.worker.stop()
		f.worker = nil
	}
	if f.transport != nil {
		f.transport.CloseIdleConnections()
		f.transport = nil
	}
}

func (f *federated) run(ctx context.Context, d time.Duration, pass int, tr *tracer) ([]time.Duration, int, error) {
	cl := newClient(f.coord.url, f.transport, tr)
	round := federatedRound()
	lat, failed := closedLoop(ctx, d, round, tr, func(ctx context.Context, c, k int) (time.Duration, error) {
		spec := federatedSpec(f.seed, pass, c, k)
		t0 := time.Now()
		res, err := cl.Run(ctx, spec)
		l := time.Since(t0)
		if err == nil {
			f.mu.Lock()
			f.done = append(f.done, serviceJob{spec, res})
			if pass == 0 && k < round {
				f.first = append(f.first, serviceJob{spec, res})
			}
			f.mu.Unlock()
		}
		return l, err
	})
	return lat, failed, nil
}

// check re-simulates every job in-process and compares the results.
func (f *federated) check(ctx context.Context) error {
	var fl failures
	for _, j := range f.done {
		fl.add(sameAsSimulate(ctx, j))
	}
	return fl.err()
}

// sameAsSimulate compares a job's result with flexsnoop.Simulate of the
// same spec.
func sameAsSimulate(ctx context.Context, j serviceJob) error {
	job, err := j.spec.Job()
	if err != nil {
		return err
	}
	want, err := flexsnoop.Simulate(ctx, job.Algorithm, flexsnoop.FromWorkload(job.Workload), job.Options)
	if err != nil {
		return err
	}
	return checkSame(fmt.Sprintf("%s/%s seed %d", j.spec.Workload, j.spec.Algorithm, j.spec.Options.Seed), j.res, want)
}

func (f *federated) firstRound() ([]service.JobSpec, []flexsnoop.Result) {
	return splitJobs(f.first)
}

func splitJobs(jobs []serviceJob) ([]service.JobSpec, []flexsnoop.Result) {
	specs := make([]service.JobSpec, len(jobs))
	results := make([]flexsnoop.Result, len(jobs))
	for i, j := range jobs {
		specs[i], results[i] = j.spec, j.res
	}
	return specs, results
}

// workloadNames lists the workloads in the order a steadiness run takes them.
func workloadNames() []string { return []string{"sim-matrix", "service-federated"} }

// newWorkload returns the named workload with inputs from seed, or nil.
func newWorkload(name string, seed int64) workload {
	switch name {
	case "sim-matrix":
		return &simMatrix{seed: seed, cmps: flexsnoop.DefaultMachine().NumCMPs}
	case "service-federated":
		return &federated{seed: seed}
	}
	return nil
}
