package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"thermflow/api"
	"thermflow/internal/trace"
)

// traceHeader carries a client-minted trace context into the pool.
const traceHeader = "X-Thermflow-Trace"

// setupProbe is the first job of every pool: a small kernel compile.
var setupProbe = api.JobRequest{Kernel: "dot"}

// client talks to the gateway over at most conns connections.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string, conns int) *client {
	return &client{base: base, hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		IdleConnTimeout:     time.Minute,
		DisableCompression:  true,
	}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// outcome is the client's view of one job.
type outcome struct {
	status  api.JobStatus
	created bool // the submit answered 202: a new job, not a duplicate
	bytes   int  // size of the terminal status document
	refused bool // 429 or 503: the pool declined the work
	err     error
}

func (c *client) send(ctx context.Context, method, path string, body []byte, traceHdr string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if traceHdr != "" {
		req.Header.Set(traceHeader, traceHdr)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

func terminal(state string) bool {
	return state == "done" || state == "failed" || state == "expired"
}

// do submits j (POST /v2/jobs) and long-polls it
// (GET /v2/jobs/{id}/wait) until it is terminal.
func (c *client) do(ctx context.Context, j job, traceHdr string) outcome {
	var o outcome
	code, b, err := c.send(ctx, http.MethodPost, "/v2/jobs", j.body, traceHdr)
	for {
		if err != nil {
			o.err = err
			return o
		}
		switch code {
		case http.StatusOK, http.StatusAccepted:
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			o.refused = true
			o.err = fmt.Errorf("refused: HTTP %d: %s", code, bytes.TrimSpace(b))
			return o
		default:
			o.err = fmt.Errorf("HTTP %d: %s", code, bytes.TrimSpace(b))
			return o
		}
		if err := json.Unmarshal(b, &o.status); err != nil {
			o.err = fmt.Errorf("decoding job status: %w", err)
			return o
		}
		if code == http.StatusAccepted {
			o.created = true
		}
		if terminal(o.status.State) {
			break
		}
		code, b, err = c.send(ctx, http.MethodGet, "/v2/jobs/"+o.status.ID+"/wait?timeout_ms=60000", nil, traceHdr)
	}
	o.bytes = len(b)
	if o.status.State != "done" {
		o.err = fmt.Errorf("job %s ended %s: %s", o.status.ID, o.status.State, o.status.Error)
	}
	return o
}

// sample is one job as the load generator saw it.
type sample struct {
	idx        int
	j          job
	due        time.Time // when the job was due: its scheduled arrival, or its send in a closed loop
	dispatched time.Time // when the generator released it to a connection queue
	sent       time.Time
	end        time.Time
	out        outcome
	traced     bool
	traceID    string
	spanID     string
}

func (s *sample) latency() time.Duration { return s.end.Sub(s.due) }

// runSample runs one sample, minting a client span for traced samples.
func runSample(ctx context.Context, c *client, s *sample) {
	hdr := ""
	if s.traced {
		s.traceID, s.spanID = trace.NewTraceID(), trace.NewSpanID()
		hdr = s.traceID + "-" + s.spanID
	}
	s.sent = time.Now()
	s.out = c.do(ctx, s.j, hdr)
	s.end = time.Now()
}

// runOpen sends every scheduled arrival at its due time over at most
// conns connections. Arrivals that find every connection busy queue
// inside the generator, and each is timed from when it was due, so a
// stall is charged to every arrival it delays.
func runOpen(ctx context.Context, c *client, jobs []job, sched []float64, conns int, traced func(int) bool) []sample {
	samples := make([]sample, len(sched))
	queue := make(chan int, len(sched)) // one slot per arrival: the dispatcher never blocks
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				runSample(ctx, c, &samples[i])
			}
		}()
	}
	t0 := time.Now()
	for i, off := range sched {
		due := t0.Add(time.Duration(off * float64(time.Second)))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		samples[i] = sample{idx: i, j: jobs[i], due: due, dispatched: time.Now(), traced: traced(i)}
		queue <- i
	}
	close(queue)
	wg.Wait()
	return samples
}

// runClosed runs clients that each send their next job as soon as the
// previous one is answered, until the window closes. Jobs are taken
// from the stream in order, so the i-th job sent is the same on every
// run with the same seed.
func runClosed(ctx context.Context, c *client, st *stream, clients int, window time.Duration, traced func(int) bool) ([]sample, error) {
	var (
		mu      sync.Mutex
		next    int
		genErr  error
		samples []sample
		wg      sync.WaitGroup
	)
	t0 := time.Now()
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(t0) < window && ctx.Err() == nil {
				mu.Lock()
				i := next
				next++
				j, err := st.at(i)
				if err != nil && genErr == nil {
					genErr = err
				}
				mu.Unlock()
				if err != nil {
					return
				}
				s := sample{idx: i, j: j, traced: traced(i)}
				s.due = time.Now()
				s.dispatched = s.due
				runSample(ctx, c, &s)
				mu.Lock()
				samples = append(samples, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return samples, genErr
}
