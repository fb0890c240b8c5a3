// Command tdfa compiles a program and runs the thermal data-flow
// analysis, printing the convergence report, the predicted heat map,
// the hottest registers and the critical-variable ranking.
//
// Usage:
//
//	tdfa -kernel fir -policy first-free
//	tdfa -file prog.ir -policy chessboard -delta 0.01
//	tdfa -kernel dot -early            # pre-allocation predictive mode
//	tdfa -kernel fir -validate 48      # score vs trace-driven truth
//	tdfa -mega 8,2 -solver region      # partitioned solve of a generated mega-module
package main

import (
	"flag"
	"fmt"
	"os"

	"thermflow"
)

func main() {
	var (
		kernel   = flag.String("kernel", "", "built-in kernel name (see -list)")
		file     = flag.String("file", "", "textual IR file to compile")
		list     = flag.Bool("list", false, "list built-in kernels and exit")
		policy   = flag.String("policy", "first-free", "register-assignment policy")
		seed     = flag.Int64("seed", 1, "seed for the random policy")
		delta    = flag.Float64("delta", 0, "convergence threshold δ in kelvin (0 = default)")
		maxIter  = flag.Int("maxiter", 0, "iteration cap (0 = default)")
		kappa    = flag.Float64("kappa", 0, "time-acceleration factor κ (0 = default)")
		solver   = flag.String("solver", "dense", "fixpoint solver: dense (Fig. 2 reference) or region (partitioned)")
		regions  = flag.Int("regions", 0, "region-count bound for -solver region (0 = solver default)")
		regDelta = flag.Float64("region-delta", 0, "extra per-region boundary slack σ in kelvin for -solver region (0 = exact, bit-identical to dense)")
		mega     = flag.String("mega", "", "generate a mega-module instead of loading one: arms,depth (e.g. 8,2)")
		emit     = flag.Bool("emit", false, "print the loaded program's IR and exit (no analysis)")
		cold     = flag.Bool("cold", false, "disable the steady-state warm start")
		leakage  = flag.Bool("leakage", false, "include temperature-dependent leakage")
		early    = flag.Bool("early", false, "run the pre-allocation predictive analysis")
		validate = flag.Int("validate", 0, "execute at this scale and score the prediction")
		topN     = flag.Int("top", 5, "critical variables to list")
	)
	flag.Parse()

	if *list {
		for _, k := range thermflow.Kernels() {
			fmt.Println(k)
		}
		return
	}

	prog, err := loadProgram(*kernel, *file, *mega, *seed)
	if err != nil {
		fail(err)
	}
	if *emit {
		fmt.Print(prog.Fn.String())
		return
	}
	pol, ok := thermflow.PolicyByName(*policy)
	if !ok {
		fail(fmt.Errorf("unknown policy %q", *policy))
	}
	sol, ok := thermflow.SolverByName(*solver)
	if !ok {
		fail(fmt.Errorf("unknown solver %q", *solver))
	}
	opts := thermflow.Options{
		Policy:      pol,
		Seed:        *seed,
		Solver:      sol,
		Delta:       *delta,
		MaxIter:     *maxIter,
		Kappa:       *kappa,
		NoWarmStart: *cold,
		WithLeakage: *leakage,
		Regions:     *regions,
		RegionDelta: *regDelta,
	}

	if *early {
		res, err := prog.AnalyzeEarly(thermflow.EarlyPrior(pol), opts)
		if err != nil {
			fail(err)
		}
		fmt.Printf("early (pre-allocation) analysis, prior for policy %s\n", pol)
		fmt.Printf("converged=%v iterations=%d finalΔ=%.4g K peak=%.2f K\n",
			res.Converged, res.Iterations, res.FinalDelta, res.PeakTemp)
		fmt.Println("\nmost thermally critical variables:")
		for i, vh := range res.TopCritical(*topN) {
			fmt.Printf("  %d. %-12s accesses/invocation=%.1f\n", i+1, vh.Value.Name, vh.Accesses)
		}
		return
	}

	c, err := prog.Compile(opts)
	if err != nil {
		fail(err)
	}
	fmt.Printf("policy=%s registers=%d occupancy=%.2f spills=%d\n",
		pol, c.Floorplan().NumRegs, c.Alloc.Occupancy(), len(c.Alloc.Spilled))
	fmt.Printf("converged=%v iterations=%d finalΔ=%.4g K\n",
		c.Thermal.Converged, c.Thermal.Iterations, c.Thermal.FinalDelta)
	m := c.Metrics()
	fmt.Printf("predicted: peak=%.2f K gradient=%.2f K σ=%.2f K hotspots=%d\n\n",
		m.Peak, m.MaxGradient, m.StdDev, m.HotspotCells)
	fmt.Println(c.Heatmap())
	fmt.Println("hottest registers:", c.Thermal.HottestRegs(5))
	fmt.Println("\nmost thermally critical variables:")
	for i, vh := range c.Thermal.TopCritical(*topN) {
		fmt.Printf("  %d. %-12s register=%-3d accesses/invocation=%.1f\n",
			i+1, vh.Value.Name, vh.Reg, vh.Accesses)
	}

	if *validate > 0 {
		acc, gt, err := c.Validate(*validate)
		if err != nil {
			fail(err)
		}
		fmt.Printf("\nvalidation at scale %d (trace replay, %d accesses):\n",
			*validate, gt.Run.Trace.TotalAccesses())
		fmt.Printf("  RMSE=%.3g K  MAE=%.3g K  Pearson=%.4f  top4=%.2f  peakErr=%.3g K\n",
			acc.RMSE, acc.MAE, acc.Pearson, acc.Top4Overlap, acc.PeakError)
	}
}

func loadProgram(kernel, file, mega string, seed int64) (*thermflow.Program, error) {
	n := 0
	for _, s := range []string{kernel, file, mega} {
		if s != "" {
			n++
		}
	}
	switch {
	case n > 1:
		return nil, fmt.Errorf("use exactly one of -kernel, -file or -mega")
	case kernel != "":
		return thermflow.Kernel(kernel)
	case file != "":
		src, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		return thermflow.Parse(string(src))
	case mega != "":
		var arms, depth int
		if _, err := fmt.Sscanf(mega, "%d,%d", &arms, &depth); err != nil {
			return nil, fmt.Errorf("-mega wants arms,depth (e.g. 8,2): %v", err)
		}
		return thermflow.GenerateMega(thermflow.MegaOptions{
			Seed: seed, Arms: arms, Depth: depth,
		}), nil
	default:
		return nil, fmt.Errorf("one of -kernel, -file or -mega is required (try -list)")
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "tdfa:", err)
	os.Exit(1)
}
