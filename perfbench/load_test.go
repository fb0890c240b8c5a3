package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"thermflow/api"
	"thermflow/internal/server"
)

// fakeGateway answers every submit as queued and every wait as done,
// after a short delay, and counts concurrent connections' requests.
func fakeGateway(t *testing.T, inflight, peak *atomic.Int64) *httptest.Server {
	t.Helper()
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := inflight.Add(1)
		defer inflight.Add(-1)
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
		time.Sleep(time.Millisecond)
		if r.Method == http.MethodPost {
			server.WriteJSON(w, http.StatusAccepted, api.JobStatus{ID: "job", State: "queued"})
			return
		}
		if !strings.HasSuffix(r.URL.Path, "/wait") {
			http.NotFound(w, r)
			return
		}
		server.WriteJSON(w, http.StatusOK, api.JobStatus{ID: "job", State: "done", Result: &api.CompileResponse{}})
	}))
}

func TestOpenLoopTimesFromDueAndBoundsConnections(t *testing.T) {
	var inflight, peak atomic.Int64
	srv := fakeGateway(t, &inflight, &peak)
	defer srv.Close()
	c := newClient(srv.URL, 2)
	defer c.close()
	st := &stream{g: newKernelGen(1)}
	sched := arrivals(1, 400, 0.5)
	var jobs []job
	for i := range sched {
		j, err := st.at(i)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	samples := runOpen(context.Background(), c, jobs, sched, 2, func(i int) bool { return i%2 == 0 })
	if len(samples) != len(sched) {
		t.Fatalf("%d samples for %d arrivals", len(samples), len(sched))
	}
	for _, s := range samples {
		if s.out.err != nil {
			t.Fatalf("job %d: %v", s.idx, s.out.err)
		}
		if s.sent.Before(s.due) || s.latency() < s.end.Sub(s.sent) {
			t.Fatalf("job %d timed from send, not from when it was due", s.idx)
		}
		if !s.out.created || s.traced != (s.idx%2 == 0) || (s.traced && s.traceID == "") {
			t.Fatalf("job %d: created %t traced %t trace %q", s.idx, s.out.created, s.traced, s.traceID)
		}
	}
	if p := peak.Load(); p > 2 {
		t.Fatalf("%d requests in flight at once over 2 connections", p)
	}
}

func TestClosedLoopStopsAtWindow(t *testing.T) {
	var inflight, peak atomic.Int64
	srv := fakeGateway(t, &inflight, &peak)
	defer srv.Close()
	c := newClient(srv.URL, 2)
	defer c.close()
	start := time.Now()
	samples, err := runClosed(context.Background(), c, &stream{g: newKernelGen(2)}, 2, 200*time.Millisecond, func(int) bool { return false })
	if err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > 2*time.Second || len(samples) == 0 {
		t.Fatalf("%d samples in %v", len(samples), time.Since(start))
	}
	seen := make(map[int]bool)
	for _, s := range samples {
		if seen[s.idx] || s.out.err != nil {
			t.Fatalf("job %d sent twice or failed: %v", s.idx, s.out.err)
		}
		seen[s.idx] = true
	}
	if p := peak.Load(); p > 2 {
		t.Fatalf("%d requests in flight with 2 clients", p)
	}
}
