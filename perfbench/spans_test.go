package main

import "testing"

func sp(start, end int64) span { return span{StartUS: start, EndUS: end} }

func TestSelfTimeSubtractsCoveredInterval(t *testing.T) {
	parent := sp(100, 200)
	for _, tc := range []struct {
		name string
		kids []span
		want int64
	}{
		{"no children", nil, 100},
		{"one child inside", []span{sp(120, 150)}, 70},
		{"disjoint children", []span{sp(110, 120), sp(150, 170)}, 70},
		{"overlapping children count once", []span{sp(110, 160), sp(140, 180)}, 30},
		{"nested children count once", []span{sp(110, 190), sp(120, 130)}, 20},
		{"child clipped to parent", []span{sp(50, 130), sp(180, 400)}, 50},
		{"child outside parent", []span{sp(0, 100), sp(200, 300)}, 100},
		{"child covers parent", []span{sp(0, 300)}, 0},
		{"adjacent children", []span{sp(100, 150), sp(150, 200)}, 0},
	} {
		if got := selfUS(parent, tc.kids); got != tc.want {
			t.Errorf("%s: self = %d µs, want %d", tc.name, got, tc.want)
		}
	}
}

func TestSpanMetricsAttributeSelfTimes(t *testing.T) {
	mk := func(name, service, id, parent string, start, end int64) span {
		return span{Name: name, Service: service, TraceID: "t1", SpanID: id, ParentID: parent, StartUS: start, EndUS: end}
	}
	spans := []span{
		mk("http.server", "thermflowgate", "g", "c", 0, 1000),
		mk("http.server", "thermflowd", "b", "g", 100, 900),
		mk("job.queued", "thermflowd", "q", "b", 200, 300),
		mk("job.run", "thermflowd", "r", "q", 300, 800),
		mk("job.solve", "thermflowd", "s", "r", 400, 700),
		// Another trace's spans must not be attributed to this one.
		{Name: "job.solve", Service: "thermflowd", TraceID: "t2", SpanID: "x", ParentID: "r", StartUS: 300, EndUS: 800},
	}
	got := map[string]float64{}
	spanMetrics(spans, func(name string, v float64, _ string) { got[name] = v })
	for name, want := range map[string]float64{
		"gateway.self_ms_p50":    0.2, // 1000 − 800 µs of backend span
		"server.self_ms_p50":     0.2, // 800 − 600 µs under job.queued and job.run
		"jobs.queue_wait_ms_p50": 0.1,
		"batch.overhead_ms_p50":  0.2, // job.run 500 − job.solve 300 µs
	} {
		if d := got[name] - want; d > 1e-9 || d < -1e-9 {
			t.Errorf("%s = %g, want %g", name, got[name], want)
		}
	}
}
