package thermflow

import (
	"context"
	"testing"
)

// CompileBatch must produce results identical to serial Compile calls,
// in job order, with failures isolated per job.
func TestCompileBatchMatchesSerial(t *testing.T) {
	p, err := Kernel("fir")
	if err != nil {
		t.Fatal(err)
	}
	optsList := []Options{
		{Policy: FirstFree},
		{Policy: Random, Seed: 3},
		{Policy: Chessboard},
		{Policy: FirstFree, Solver: SolverRegion},
	}
	jobs := make([]CompileJob, len(optsList))
	for i, o := range optsList {
		jobs[i] = CompileJob{Program: p, Opts: o}
	}
	res := CompileBatch(context.Background(), jobs, 4)
	if len(res) != len(jobs) {
		t.Fatalf("got %d results for %d jobs", len(res), len(jobs))
	}
	for i, o := range optsList {
		if res[i].Err != nil {
			t.Fatalf("job %d: %v", i, res[i].Err)
		}
		want, err := p.Compile(o)
		if err != nil {
			t.Fatal(err)
		}
		got := res[i].Compiled
		if got.Thermal.PeakTemp != want.Thermal.PeakTemp {
			t.Errorf("job %d: peak %g, serial %g", i, got.Thermal.PeakTemp, want.Thermal.PeakTemp)
		}
		if d := got.Thermal.Peak.MaxDelta(want.Thermal.Peak); d != 0 {
			t.Errorf("job %d: peak states differ by %g", i, d)
		}
	}
}

// Identical (program, options) jobs must be compiled once and shared;
// differing options must not collide.
func TestCompileBatchCache(t *testing.T) {
	p, err := Kernel("dot")
	if err != nil {
		t.Fatal(err)
	}
	b := NewBatch(4)
	same := CompileJob{Program: p, Opts: Options{Policy: FirstFree}}
	diff := CompileJob{Program: p, Opts: Options{Policy: Chessboard}}
	res := b.Compile(context.Background(), []CompileJob{same, same, diff, same})
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("job %d: %v", i, r.Err)
		}
	}
	if res[0].Compiled != res[1].Compiled || res[0].Compiled != res[3].Compiled {
		t.Error("identical jobs did not share one compilation")
	}
	if res[0].Compiled == res[2].Compiled {
		t.Error("different options shared a compilation")
	}
	s := b.Stats()
	if s.Misses != 2 {
		t.Errorf("misses = %d, want 2 (two distinct configs)", s.Misses)
	}
	if s.Hits != 2 {
		t.Errorf("hits = %d, want 2", s.Hits)
	}
	// A second Compile on the same engine is served from cache.
	res2 := b.Compile(context.Background(), []CompileJob{same})
	if !res2[0].Cached || res2[0].Compiled != res[0].Compiled {
		t.Error("cache did not persist across Compile calls")
	}
}

// A failing job must not poison its batch.
func TestCompileBatchErrorIsolation(t *testing.T) {
	good, err := Kernel("dot")
	if err != nil {
		t.Fatal(err)
	}
	jobs := []CompileJob{
		{Program: good, Opts: Options{}},
		{Program: good, Opts: Options{GridW: 2, GridH: 2}}, // 64 regs don't fit a 2x2 grid
		{Program: nil},
		{Program: good, Opts: Options{Policy: Chessboard}},
	}
	res := CompileBatch(context.Background(), jobs, 2)
	if res[0].Err != nil || res[3].Err != nil {
		t.Errorf("good jobs failed: %v / %v", res[0].Err, res[3].Err)
	}
	if res[1].Err == nil {
		t.Error("oversubscribed floorplan should have failed")
	}
	if res[2].Err == nil {
		t.Error("nil program should have failed")
	}
}

// Cancelling the context stops jobs that have not started.
func TestCompileBatchCancellation(t *testing.T) {
	p, err := Kernel("fir")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := CompileBatch(ctx, []CompileJob{{Program: p, Opts: Options{}}}, 1)
	if res[0].Err == nil {
		t.Error("job ran under a cancelled context")
	}
}
