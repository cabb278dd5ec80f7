package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into the program, recorded from the benchmark's
// side of the call.
type span struct {
	id, parent int64
	name       string
	lane       int // load-generating goroutine
	start, end time.Time
}

// tracer keeps the spans of a traced window in memory until the run
// ends. A nil *tracer records nothing, so untraced windows pay one nil
// check per call.
type tracer struct {
	t0     time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newID allocates a span identifier (0 when t is nil).
func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	return t.nextID.Add(1)
}

func (t *tracer) record(s span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// spanCtx carries the enclosing span into the HTTP calls a job makes.
type spanCtx struct {
	id   int64
	lane int
}

type spanKey struct{}

func withSpan(ctx context.Context, id int64, lane int) context.Context {
	return context.WithValue(ctx, spanKey{}, spanCtx{id, lane})
}

// tracingTransport records one span per HTTP call of the service client:
// from sending the request to closing the response body, so the span
// covers the client's decoding of the body too.
type tracingTransport struct {
	base http.RoundTripper
	tr   *tracer
}

func (t *tracingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	parent, _ := req.Context().Value(spanKey{}).(spanCtx)
	s := span{id: t.tr.newID(), parent: parent.id, lane: parent.lane, name: httpSpanName(req), start: time.Now()}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		s.end = time.Now()
		t.tr.record(s)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, tr: t.tr, s: s}
	return resp, nil
}

// httpSpanName names a service API call by its route.
func httpSpanName(req *http.Request) string {
	switch {
	case req.Method == http.MethodPost && req.URL.Path == "/v1/jobs":
		return "http.submit"
	case req.Method == http.MethodGet && strings.HasPrefix(req.URL.Path, "/v1/jobs/"):
		return "http.status"
	default:
		return "http.other"
	}
}

// spanBody ends its span when the client closes the response body.
type spanBody struct {
	io.ReadCloser
	tr     *tracer
	s      span
	closed bool
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	if !b.closed {
		b.closed = true
		b.s.end = time.Now()
		b.tr.record(b.s)
	}
	return err
}

// clientRows derives the client-side service rows from the spans: the
// p50 duration of submit and status calls, status polls per job, and the
// p50 wait from the submit response to the result in hand. Rows of a
// workload that makes no such call read 0.
func clientRows(t *tracer, jobs int, rows map[string]metric) {
	jobEnd := map[int64]time.Time{}
	for _, s := range t.spans {
		if s.parent == 0 {
			jobEnd[s.id] = s.end
		}
	}
	var submit, status, wait []time.Duration
	for _, s := range t.spans {
		switch s.name {
		case "http.submit":
			submit = append(submit, s.end.Sub(s.start))
			if end, ok := jobEnd[s.parent]; ok {
				wait = append(wait, end.Sub(s.end))
			}
		case "http.status":
			status = append(status, s.end.Sub(s.start))
		}
	}
	p50 := func(d []time.Duration) float64 {
		if len(d) == 0 {
			return 0
		}
		v, _ := percentile(d, 50)
		return ms(v)
	}
	rows["client.submit_ms"] = metric{p50(submit), "ms"}
	rows["client.status_ms"] = metric{p50(status), "ms"}
	rows["client.wait_ms"] = metric{p50(wait), "ms"}
	rows["client.polls_per_job"] = metric{float64(len(status)) / float64(jobs), "count"}
}

// write saves the spans as Chrome trace-event JSON, which Perfetto and
// chrome://tracing open directly.
func (t *tracer) write(path string) error {
	type event struct {
		Name string           `json:"name"`
		Ph   string           `json:"ph"`
		Ts   float64          `json:"ts"`
		Dur  float64          `json:"dur"`
		Pid  int              `json:"pid"`
		Tid  int              `json:"tid"`
		Args map[string]int64 `json:"args"`
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	evs := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		evs = append(evs, event{
			Name: s.name, Ph: "X", Pid: 1, Tid: s.lane,
			Ts: us(s.start.Sub(t.t0)), Dur: us(s.end.Sub(s.start)),
			Args: map[string]int64{"id": s.id, "parent": s.parent},
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(map[string]any{"traceEvents": evs}); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
