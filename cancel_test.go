package thermflow

import (
	"context"
	"errors"
	"testing"
	"time"
)

// slowOpts makes the matmul analysis run for many seconds when left
// alone: tiny κ heats the grid slowly, so the fixpoint needs ~7e5
// sweeps at this δ (measured ~16 s). The cancellation tests only ever
// run a fraction of that — promptness is the property under test.
func slowOpts(solver Solver) Options {
	return Options{
		Solver:      solver,
		Delta:       1e-9,
		Kappa:       0.01,
		NoWarmStart: true,
		MaxIter:     1 << 20,
	}
}

// A compile whose context is cancelled mid-analysis must return
// promptly with the context's error — not run the remaining sweeps to
// the fixpoint — for both solvers.
func TestCompileContextCancelsMidAnalysis(t *testing.T) {
	for _, solver := range []Solver{SolverDense, SolverRegion} {
		t.Run(solver.String(), func(t *testing.T) {
			p, err := Kernel("matmul")
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
			defer cancel()
			start := time.Now()
			_, err = p.CompileContext(ctx, slowOpts(solver))
			elapsed := time.Since(start)
			if err == nil {
				t.Fatal("cancelled compile returned no error")
			}
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("err = %v, want context.DeadlineExceeded", err)
			}
			if elapsed > 3*time.Second {
				t.Fatalf("cancelled compile took %v, want prompt return", elapsed)
			}
		})
	}
}

// A context cancelled before the compile starts must stop the solver
// on its first poll.
func TestCompileContextPreCancelled(t *testing.T) {
	p, err := Kernel("matmul")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if _, err := p.CompileContext(ctx, slowOpts(SolverDense)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("pre-cancelled compile took %v, want prompt return", elapsed)
	}
}

// Cancelling a batch context must cut the in-flight compile itself and
// the cancellation-tainted failure must not be cached: a later batch
// with a live context recomputes and succeeds.
func TestBatchCancelCutsInFlightCompile(t *testing.T) {
	p, err := Kernel("fir")
	if err != nil {
		t.Fatal(err)
	}
	b := NewBatch(1)
	job := CompileJob{Program: p, Opts: slowOpts(SolverDense)}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan []CompileResult, 1)
	go func() { done <- b.Compile(ctx, []CompileJob{job}) }()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case res := <-done:
		if res[0].Err == nil {
			t.Fatal("cancelled batch job returned no error")
		}
		if !errors.Is(res[0].Err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", res[0].Err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled batch did not return promptly")
	}

	// The identical job (same cache key) must be recomputed, not
	// served the cached cancellation: a second run under its own
	// short-lived context reports its own fresh cancellation, not a
	// cached one.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel2()
	res := b.Compile(ctx2, []CompileJob{job})
	if res[0].Err == nil {
		t.Fatal("second cancelled run of the slow job returned no error")
	}
	if res[0].Cached {
		t.Fatal("cancellation-tainted failure was served from cache")
	}

	// And the engine stays usable: a different (fast) job compiles.
	quick := job
	quick.Opts = Options{Solver: SolverDense}
	res = b.Compile(context.Background(), []CompileJob{quick})
	if res[0].Err != nil {
		t.Fatalf("post-cancel compile failed: %v", res[0].Err)
	}
}
