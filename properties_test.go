package thermflow

// System-level invariants checked across randomized inputs: the
// linearity of the RC model, allocator soundness over random programs ×
// policies × register counts, and end-to-end determinism.

import (
	"fmt"
	"math/rand"
	"testing"

	"thermflow/internal/analysis"
	"thermflow/internal/cfg"
	"thermflow/internal/interference"
	"thermflow/internal/power"
	"thermflow/internal/regalloc"
	"thermflow/internal/sim"
	"thermflow/internal/tdfa"
	"thermflow/internal/thermal"
	"thermflow/internal/workload"
)

// The RC model is linear: the steady-state rise of a summed power map
// equals the sum of the individual rises.
func TestThermalSuperposition(t *testing.T) {
	grid, err := thermal.NewGrid(8, 8, power.Default65nm())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		p1 := make([]float64, 64)
		p2 := make([]float64, 64)
		for i := range p1 {
			if rng.Intn(4) == 0 {
				p1[i] = rng.Float64() * 2e-3
			}
			if rng.Intn(4) == 0 {
				p2[i] = rng.Float64() * 2e-3
			}
		}
		sum := make([]float64, 64)
		for i := range sum {
			sum[i] = p1[i] + p2[i]
		}
		s1 := grid.SteadyState(p1)
		s2 := grid.SteadyState(p2)
		s12 := grid.SteadyState(sum)
		for c := range s12 {
			rise := (s1[c] - grid.TAmb) + (s2[c] - grid.TAmb)
			if d := s12[c] - grid.TAmb - rise; d > 1e-6 || d < -1e-6 {
				t.Fatalf("trial %d cell %d: superposition violated by %g K", trial, c, d)
			}
		}
	}
}

// Allocation soundness: across random programs, policies and register
// counts, interfering values never share a register, and the allocated
// program computes the same result as the original.
func TestAllocatorSoundnessRandomized(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		prog := workload.Generate(workload.GenConfig{
			Seed: seed, Pressure: 10 + int(seed)*3, Irregularity: float64(seed) / 5,
		})
		want, err := sim.Run(prog, sim.Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, pol := range regalloc.Policies {
			for _, k := range []int{8, 16, 64} {
				a, err := regalloc.Allocate(prog, regalloc.Config{
					NumRegs: k, Policy: pol, Seed: seed,
				})
				if err != nil {
					t.Fatalf("seed %d %v K=%d: %v", seed, pol, k, err)
				}
				// No interfering pair shares a register.
				g := cfg.Build(a.Fn)
				lv := analysis.ComputeLiveness(g)
				ig := interference.Build(g, lv)
				for _, v := range ig.Nodes() {
					for _, u := range ig.Neighbors(v) {
						if ig.NeedsRegister(u) && a.RegOf[v] >= 0 && a.RegOf[v] == a.RegOf[u] {
							t.Fatalf("seed %d %v K=%d: values %s and %s share register %d",
								seed, pol, k,
								a.Fn.Values()[v].Name, a.Fn.Values()[u].Name, a.RegOf[v])
						}
					}
				}
				got, err := sim.Run(a.Fn, sim.Options{})
				if err != nil {
					t.Fatalf("seed %d %v K=%d run: %v", seed, pol, k, err)
				}
				if got.Ret != want.Ret {
					t.Fatalf("seed %d %v K=%d: result changed %d -> %d",
						seed, pol, k, want.Ret, got.Ret)
				}
			}
		}
	}
}

// End-to-end determinism: compiling and analyzing the same program
// twice yields identical predictions; running it twice yields identical
// traces.
func TestEndToEndDeterminism(t *testing.T) {
	build := func() (*Compiled, *RunResult) {
		p, err := Kernel("fir")
		if err != nil {
			t.Fatal(err)
		}
		c, err := p.Compile(Options{Policy: Random, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		r, err := c.Run(24)
		if err != nil {
			t.Fatal(err)
		}
		return c, r
	}
	c1, r1 := build()
	c2, r2 := build()
	if c1.Thermal.PeakTemp != c2.Thermal.PeakTemp {
		t.Errorf("peaks differ: %g vs %g", c1.Thermal.PeakTemp, c2.Thermal.PeakTemp)
	}
	if c1.Thermal.Iterations != c2.Thermal.Iterations {
		t.Errorf("iterations differ: %d vs %d", c1.Thermal.Iterations, c2.Thermal.Iterations)
	}
	if d := c1.Thermal.Peak.MaxDelta(c2.Thermal.Peak); d != 0 {
		t.Errorf("peak states differ by %g", d)
	}
	if r1.Cycles != r2.Cycles || r1.Ret != r2.Ret {
		t.Error("runs differ")
	}
	if len(r1.Trace.Accesses) != len(r2.Trace.Accesses) {
		t.Fatal("trace lengths differ")
	}
	for i := range r1.Trace.Accesses {
		if r1.Trace.Accesses[i] != r2.Trace.Accesses[i] {
			t.Fatalf("traces diverge at access %d", i)
		}
	}
}

// The predicted rise scales monotonically with the access energy: a
// hotter technology can only raise every cell.
func TestPredictionMonotoneInAccessEnergy(t *testing.T) {
	p, err := Kernel("dot")
	if err != nil {
		t.Fatal(err)
	}
	base := power.Default65nm()
	hot := base
	hot.EnergyRead *= 2
	hot.EnergyWrite *= 2
	cBase, err := p.Compile(Options{Tech: base})
	if err != nil {
		t.Fatal(err)
	}
	cHot, err := p.Compile(Options{Tech: hot})
	if err != nil {
		t.Fatal(err)
	}
	for i := range cBase.Thermal.Mean {
		if cHot.Thermal.Mean[i] < cBase.Thermal.Mean[i]-1e-9 {
			t.Fatalf("cell %d cooled under doubled access energy", i)
		}
	}
	if cHot.Thermal.PeakTemp <= cBase.Thermal.PeakTemp {
		t.Error("peak did not rise with access energy")
	}
}

// Profile-guided analysis must agree with the static analysis on
// programs whose static frequency estimates are already exact, and
// must not be worse on any kernel.
func TestProfileGuidedConsistency(t *testing.T) {
	for _, name := range []string{"dot", "fir", "checksum"} {
		p, err := Kernel(name)
		if err != nil {
			t.Fatal(err)
		}
		c, err := p.Compile(Options{Policy: FirstFree})
		if err != nil {
			t.Fatal(err)
		}
		pg, err := c.ProfileGuided(64)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !pg.Thermal.Converged {
			t.Errorf("%s: profiled analysis did not converge", name)
		}
		// The trip hints match the canonical scale for these kernels
		// only approximately; the profiled peak must stay in the same
		// regime (within a few K).
		d := pg.Thermal.PeakTemp - c.Thermal.PeakTemp
		if d < -6 || d > 6 {
			t.Errorf("%s: profiled peak %g K vs static %g K", name,
				pg.Thermal.PeakTemp, c.Thermal.PeakTemp)
		}
	}
}

// Differential property: at σ=0 the region-partitioned solver is not
// an approximation — its wave schedule replays the dense solver's read
// pattern exactly, so every analysis output must be bit-identical to
// the dense reference across random programs (all region counts), every
// kernel, and generated mega-modules.
func TestRegionDenseDifferential(t *testing.T) {
	check := func(t *testing.T, name string, p *Program, opts Options) {
		t.Helper()
		dense := opts
		dense.Solver = SolverDense
		dense.Regions = 0
		region := opts
		region.Solver = SolverRegion
		cd, err := p.Compile(dense)
		if err != nil {
			t.Fatalf("%s dense: %v", name, err)
		}
		cr, err := p.Compile(region)
		if err != nil {
			t.Fatalf("%s region: %v", name, err)
		}
		td, tr := cd.Thermal, cr.Thermal
		if td.Converged != tr.Converged || td.Iterations != tr.Iterations ||
			td.FinalDelta != tr.FinalDelta || td.BlockSweeps != tr.BlockSweeps ||
			td.PeakTemp != tr.PeakTemp {
			t.Fatalf("%s: scalar outputs diverge: conv %v/%v iter %d/%d Δ %v/%v sweeps %d/%d peak %v/%v",
				name, td.Converged, tr.Converged, td.Iterations, tr.Iterations,
				td.FinalDelta, tr.FinalDelta, td.BlockSweeps, tr.BlockSweeps,
				td.PeakTemp, tr.PeakTemp)
		}
		for i := range td.InstrState {
			if d := td.InstrState[i].MaxDelta(tr.InstrState[i]); d != 0 {
				t.Fatalf("%s: instruction %d state differs by %g K", name, i, d)
			}
		}
		for i := range td.BlockIn {
			if d := td.BlockIn[i].MaxDelta(tr.BlockIn[i]); d != 0 {
				t.Fatalf("%s: block %d in-state differs by %g K", name, i, d)
			}
		}
		if d := td.Peak.MaxDelta(tr.Peak); d != 0 {
			t.Fatalf("%s: peak states differ by %g K", name, d)
		}
		for i := range td.RegPeak {
			if td.RegPeak[i] != tr.RegPeak[i] {
				t.Fatalf("%s: reg %d peak %v vs %v", name, i, td.RegPeak[i], tr.RegPeak[i])
			}
		}
	}

	for seed := int64(0); seed < 50; seed++ {
		opts := Options{
			Policy:  Policies[int(seed)%len(Policies)],
			Seed:    seed,
			Regions: []int{0, 2, 3, 4, 8, 1 << 16}[seed%6],
		}
		switch seed % 5 {
		case 1:
			opts.JoinOp = tdfa.JoinUnweighted
		case 2:
			opts.JoinOp = tdfa.JoinMax
		case 3:
			opts.WithLeakage = true
		case 4:
			opts.NoWarmStart = true
			opts.MaxIter = 4096
		}
		p := Generate(GenerateOptions{
			Seed:         seed,
			Pressure:     6 + int(seed)%12,
			Segments:     2 + int(seed)%4,
			LoopDepth:    1 + int(seed)%3,
			Irregularity: float64(seed%10) / 10,
		})
		check(t, fmt.Sprintf("gen-seed-%d", seed), p, opts)
	}
	for _, name := range Kernels() {
		p, err := Kernel(name)
		if err != nil {
			t.Fatal(err)
		}
		check(t, "kernel-"+name, p, Options{Regions: 3})
	}
	// Mega-modules are the region plane's target workload: wide call
	// fabrics whose partitions actually fan out.
	for _, seed := range []int64{1, 2} {
		p := GenerateMega(MegaOptions{
			Seed: seed, Arms: 4, Depth: 1, OpsPerBlock: 4, Pressure: 8, TripCount: 8,
		})
		check(t, fmt.Sprintf("mega-seed-%d", seed), p, Options{Regions: 6})
	}
}

// Round-trip: every generated program prints and re-parses to an
// equivalent program (same execution result).
func TestPrintParseExecutionEquivalence(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		fn := workload.Generate(workload.GenConfig{Seed: seed, Irregularity: 0.7})
		want, err := sim.Run(fn, sim.Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		p2, err := Parse(fn.String())
		if err != nil {
			t.Fatalf("seed %d reparse: %v", seed, err)
		}
		got, err := sim.Run(p2.Fn, sim.Options{})
		if err != nil {
			t.Fatalf("seed %d rerun: %v", seed, err)
		}
		if got.Ret != want.Ret || got.Cycles != want.Cycles {
			t.Fatalf("seed %d: round trip changed execution (%d,%d) -> (%d,%d)",
				seed, want.Ret, want.Cycles, got.Ret, got.Cycles)
		}
	}
}
