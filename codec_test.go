package thermflow_test

import (
	"errors"
	"reflect"
	"testing"

	"thermflow"
	"thermflow/internal/cachestore"
	"thermflow/internal/tdfa"
)

// requireEqualThermal compares two analysis results field by field.
// Critical entries reference ir.Values, whose IDs depend on creation
// order and legitimately shift across a print→parse round trip, so
// values compare by name; every other field must be deeply equal.
func requireEqualThermal(t *testing.T, want, got *tdfa.Result) {
	t.Helper()
	if (want == nil) != (got == nil) {
		t.Fatalf("thermal presence diverged: want %v, got %v", want != nil, got != nil)
	}
	if want == nil {
		return
	}
	if want.Converged != got.Converged || want.Iterations != got.Iterations ||
		want.FinalDelta != got.FinalDelta || want.BlockSweeps != got.BlockSweeps ||
		want.PeakTemp != got.PeakTemp {
		t.Fatalf("scalars diverged:\nwant %v %d %g %d %g\ngot  %v %d %g %d %g",
			want.Converged, want.Iterations, want.FinalDelta, want.BlockSweeps, want.PeakTemp,
			got.Converged, got.Iterations, got.FinalDelta, got.BlockSweeps, got.PeakTemp)
	}
	if !reflect.DeepEqual(want.DeltaHistory, got.DeltaHistory) {
		t.Fatal("delta history diverged")
	}
	if !reflect.DeepEqual(want.InstrState, got.InstrState) {
		t.Fatal("per-instruction states diverged")
	}
	if !reflect.DeepEqual(want.BlockIn, got.BlockIn) {
		t.Fatal("block-entry states diverged")
	}
	if !reflect.DeepEqual(want.Peak, got.Peak) || !reflect.DeepEqual(want.Mean, got.Mean) {
		t.Fatal("peak/mean states diverged")
	}
	if !reflect.DeepEqual(want.RegPeak, got.RegPeak) {
		t.Fatal("per-register peaks diverged")
	}
	if len(want.Critical) != len(got.Critical) {
		t.Fatalf("critical ranking length: want %d, got %d", len(want.Critical), len(got.Critical))
	}
	for i := range want.Critical {
		w, g := want.Critical[i], got.Critical[i]
		if w.Value.Name != g.Value.Name || w.Score != g.Score ||
			w.Accesses != g.Accesses || w.Reg != g.Reg {
			t.Fatalf("critical entry %d diverged: want {%s %g %g %d}, got {%s %g %g %d}",
				i, w.Value.Name, w.Score, w.Accesses, w.Reg,
				g.Value.Name, g.Score, g.Accesses, g.Reg)
		}
	}
}

// requireEqualCompiled checks that a decoded compilation is
// indistinguishable where it matters: options, floorplan, allocation
// summary, register assignment (by value name) and the full thermal
// result.
func requireEqualCompiled(t *testing.T, want, got *thermflow.Compiled) {
	t.Helper()
	if !reflect.DeepEqual(want.Opts, got.Opts) {
		t.Fatalf("options diverged:\nwant %+v\ngot  %+v", want.Opts, got.Opts)
	}
	if want.Program.Key != got.Program.Key {
		t.Fatalf("program key: want %q, got %q", want.Program.Key, got.Program.Key)
	}
	if want.Program.Fn.String() != got.Program.Fn.String() {
		t.Fatal("source program text diverged")
	}
	if want.Alloc.Fn.String() != got.Alloc.Fn.String() {
		t.Fatal("allocated function text diverged")
	}
	wa, ga := want.Alloc, got.Alloc
	if wa.Rounds != ga.Rounds || wa.SpillLoads != ga.SpillLoads ||
		wa.SpillStores != ga.SpillStores || !reflect.DeepEqual(wa.Spilled, ga.Spilled) {
		t.Fatalf("allocation summary diverged:\nwant %d/%d/%d %v\ngot  %d/%d/%d %v",
			wa.Rounds, wa.SpillLoads, wa.SpillStores, wa.Spilled,
			ga.Rounds, ga.SpillLoads, ga.SpillStores, ga.Spilled)
	}
	// Register assignment by name (IDs may shift across the reparse).
	for _, v := range wa.Fn.Values() {
		gv := ga.Fn.ValueNamed(v.Name)
		if wa.RegOf[v.ID] < 0 {
			if gv != nil && ga.RegOf[gv.ID] >= 0 {
				t.Fatalf("value %q gained register %d", v.Name, ga.RegOf[gv.ID])
			}
			continue
		}
		if gv == nil {
			t.Fatalf("assigned value %q missing after round trip", v.Name)
		}
		if wa.RegOf[v.ID] != ga.RegOf[gv.ID] {
			t.Fatalf("value %q register: want %d, got %d", v.Name, wa.RegOf[v.ID], ga.RegOf[gv.ID])
		}
	}
	if want.Floorplan().NumRegs != got.Floorplan().NumRegs ||
		want.Floorplan().Width != got.Floorplan().Width ||
		want.Floorplan().Height != got.Floorplan().Height {
		t.Fatal("floorplan diverged")
	}
	if want.Tech() != got.Tech() {
		t.Fatal("technology parameters diverged")
	}
	requireEqualThermal(t, want.Thermal, got.Thermal)
}

// The disk codec must round-trip full compilations — random programs,
// spill-heavy register files, every policy family, thermal states and
// all — through encode → decode → deep equality.
func TestCompiledCodecRoundTripRandomPrograms(t *testing.T) {
	optFor := func(seed int64) thermflow.Options {
		opts := thermflow.Options{}
		switch seed % 4 {
		case 1:
			opts.Policy = thermflow.Chessboard
		case 2:
			opts.Policy = thermflow.RoundRobin
			opts.NumRegs = 12 // forces spilling on most generated programs
			opts.GridW, opts.GridH = 4, 4
		case 3:
			opts.Policy = thermflow.Coldest
			opts.Solver = thermflow.SolverRegion
			opts.WithLeakage = true
		}
		return opts
	}
	for seed := int64(1); seed <= 20; seed++ {
		prog := thermflow.Generate(thermflow.GenerateOptions{
			Seed:         seed,
			Segments:     2 + int(seed%3),
			Irregularity: float64(seed%3) / 3,
		})
		c, err := prog.Compile(optFor(seed))
		if err != nil {
			t.Fatalf("seed %d: compile: %v", seed, err)
		}
		blob, err := thermflow.EncodeCompiled(c)
		if err != nil {
			t.Fatalf("seed %d: encode: %v", seed, err)
		}
		got, err := thermflow.DecodeCompiled(blob)
		if err != nil {
			t.Fatalf("seed %d: decode: %v", seed, err)
		}
		requireEqualCompiled(t, c, got)
	}
}

// Kernel results (hooked programs with a stable Key) must round-trip;
// the decoded Program resolves back through the workload registry, so
// it regains its Setup/Expect hooks and validates like a fresh
// compile.
func TestCompiledCodecRoundTripKernels(t *testing.T) {
	for _, name := range thermflow.Kernels() {
		prog, err := thermflow.Kernel(name)
		if err != nil {
			t.Fatal(err)
		}
		c, err := prog.Compile(thermflow.Options{Policy: thermflow.Chessboard})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		blob, err := thermflow.EncodeCompiled(c)
		if err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		got, err := thermflow.DecodeCompiled(blob)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		requireEqualCompiled(t, c, got)
		if got.Program.Setup == nil || got.Program.Expect == nil {
			t.Fatalf("%s: decoded kernel program lost its hooks", name)
		}
	}
}

// A kernel key whose persisted IR no longer matches the registry (the
// kernel definition changed between processes) must NOT regain hooks:
// they may describe a different program.
func TestCompiledCodecStaleKernelTextKeepsHooksNil(t *testing.T) {
	prog, err := thermflow.Kernel("dot")
	if err != nil {
		t.Fatal(err)
	}
	// Same Key, different IR than the registry's current "dot".
	other := thermflow.Generate(thermflow.GenerateOptions{Seed: 9})
	other.Key = prog.Key
	c, err := other.Compile(thermflow.Options{})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := thermflow.EncodeCompiled(c)
	if err != nil {
		t.Fatal(err)
	}
	got, err := thermflow.DecodeCompiled(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got.Program.Setup != nil || got.Program.Expect != nil {
		t.Fatal("stale kernel text regained hooks that describe a different program")
	}
	if got.Program.Key != prog.Key {
		t.Errorf("key lost: %q", got.Program.Key)
	}
}

// A SkipAnalysis compile (no thermal result) must round-trip too.
func TestCompiledCodecRoundTripSkipAnalysis(t *testing.T) {
	prog := thermflow.Generate(thermflow.GenerateOptions{Seed: 5})
	c, err := prog.Compile(thermflow.Options{SkipAnalysis: true})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := thermflow.EncodeCompiled(c)
	if err != nil {
		t.Fatal(err)
	}
	got, err := thermflow.DecodeCompiled(blob)
	if err != nil {
		t.Fatal(err)
	}
	requireEqualCompiled(t, c, got)
}

// Hooked programs without a stable Key carry process-local identity:
// the codec must decline them (they stay memory-only) rather than
// persist a result another process would wrongly share.
func TestCompiledCodecDeclinesKeylessHookedPrograms(t *testing.T) {
	prog, err := thermflow.Kernel("dot")
	if err != nil {
		t.Fatal(err)
	}
	prog.Key = "" // strip the stable identity, keep the hooks
	c, err := prog.Compile(thermflow.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := thermflow.EncodeCompiled(c); !errors.Is(err, cachestore.ErrUnencodable) {
		t.Fatalf("encode of keyless hooked program: %v, want ErrUnencodable", err)
	}
}

// Truncations of a full Compiled encoding must all fail cleanly.
func TestCompiledCodecRejectsTruncation(t *testing.T) {
	prog, err := thermflow.Kernel("matmul")
	if err != nil {
		t.Fatal(err)
	}
	c, err := prog.Compile(thermflow.Options{})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := thermflow.EncodeCompiled(c)
	if err != nil {
		t.Fatal(err)
	}
	step := 1
	if len(blob) > 1024 {
		step = len(blob) / 1024
	}
	for n := 0; n < len(blob); n += step {
		if _, err := thermflow.DecodeCompiled(blob[:n]); err == nil {
			t.Fatalf("truncation at %d/%d bytes decoded without error", n, len(blob))
		}
	}
}
