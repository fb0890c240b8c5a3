package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"thermflow"
	"thermflow/api"
	"thermflow/internal/regalloc"
	"thermflow/internal/workload"
)

// job is one generated request: the wire body the pool receives and
// what the benchmark needs to check the answer.
type job struct {
	body   []byte
	id     string // expected job ID: the hex SHA-256 of the canonical spec
	req    api.JobRequest
	spec   thermflow.JobSpec
	kernel string // built-in kernel name, "" for program jobs
	family string // kernel, mega, nest or pressure
}

func newJob(req api.JobRequest, family string) (job, error) {
	var spec thermflow.JobSpec
	var err error
	if req.Kernel != "" {
		spec, err = thermflow.JobSpecFromKernel(req.Kernel, req.Options)
	} else {
		spec, err = thermflow.JobSpecFromSource(req.Program, req.Root, req.Options)
	}
	if err != nil {
		return job{}, err
	}
	id, err := spec.ID()
	if err != nil {
		return job{}, err
	}
	body, err := json.Marshal(req)
	if err != nil {
		return job{}, err
	}
	return job{body: body, id: id, req: req, spec: spec, kernel: req.Kernel, family: family}, nil
}

// generator yields a workload's request stream. The i-th request
// depends only on the seed and i.
type generator interface {
	next() (job, error)
}

// kernelGen draws built-in kernels × policies × num_regs. About four
// in five draws repeat a spec sent earlier in the run, the rest are
// specs not sent before: the interactive case of small programs and
// repeated configurations.
type kernelGen struct {
	rng     *rand.Rand
	kernels []string
	sent    []job
	seen    map[string]bool
}

// kernelRepeatShare is the share of kernel requests that repeat a spec.
const kernelRepeatShare = 0.8

// With 4 registers or fewer, matmul and saxpy exceed the spill budget
// and fail; 8 leaves a margin.
const kernelMinRegs, kernelMaxRegs = 8, 64

func newKernelGen(seed int64) *kernelGen {
	return &kernelGen{
		rng:     rand.New(rand.NewSource(seed)),
		kernels: thermflow.Kernels(),
		seen:    make(map[string]bool),
	}
}

func (g *kernelGen) next() (job, error) {
	if len(g.sent) > 0 && g.rng.Float64() < kernelRepeatShare {
		return g.sent[g.rng.Intn(len(g.sent))], nil
	}
	for {
		req := api.JobRequest{
			Kernel: g.kernels[g.rng.Intn(len(g.kernels))],
			Options: thermflow.Options{
				Policy:  regalloc.Policies[g.rng.Intn(len(regalloc.Policies))],
				NumRegs: kernelMinRegs + g.rng.Intn(kernelMaxRegs-kernelMinRegs+1),
			},
		}
		j, err := newJob(req, "kernel")
		if err != nil {
			return job{}, err
		}
		if g.seen[j.id] {
			continue
		}
		g.seen[j.id] = true
		g.sent = append(g.sent, j)
		return j, nil
	}
}

// programGen yields unique IR programs from three families, each a
// third of the stream: mega-modules (4–8 arms, loop depth 2–3),
// generated loop nests (depth 2–4), and high-pressure programs
// compiled for 8–24 registers so allocation takes 2–3 spill rounds.
// The stream is stratified: every block of programBlock requests holds
// each family's shapes in the same proportions, in a seeded order, so
// runs with different seeds send the same mix of work and differ only
// in the programs' contents.
type programGen struct {
	rng  *rand.Rand
	seen map[string]bool
	plan []programShape
}

// programShape is one family and its two size parameters.
type programShape struct {
	family string
	a, b   int
}

// programBlock is the stratification period: 5 arm counts × 2 depths
// of mega-module, and ten each of the other two families.
const programBlock = 30

func programShapes() []programShape {
	out := make([]programShape, 0, programBlock)
	for arms := 4; arms <= 8; arms++ {
		for depth := 2; depth <= 3; depth++ {
			out = append(out, programShape{"mega", arms, depth})
		}
	}
	for k := 0; k < 10; k++ {
		out = append(out,
			programShape{"nest", 2 + k%3, 4 + k%5},            // loop depth, segments
			programShape{"pressure", 24 + k*16/9, 8 + k*16/9}) // live values, registers
	}
	return out
}

func newProgramGen(seed int64) *programGen {
	return &programGen{rng: rand.New(rand.NewSource(seed)), seen: make(map[string]bool)}
}

func (g *programGen) next() (job, error) {
	for {
		if len(g.plan) == 0 {
			g.plan = programShapes()
			g.rng.Shuffle(len(g.plan), func(a, b int) { g.plan[a], g.plan[b] = g.plan[b], g.plan[a] })
		}
		sh := g.plan[0]
		g.plan = g.plan[1:]
		var req api.JobRequest
		s := g.rng.Int63()
		switch sh.family {
		case "mega":
			req.Program = workload.GenerateMega(workload.MegaConfig{Seed: s, Arms: sh.a, Depth: sh.b}).String()
		case "nest":
			req.Program = workload.Generate(workload.GenConfig{
				Seed: s, LoopDepth: sh.a, Segments: sh.b, OpsPerBlock: 8,
			}).String()
		case "pressure":
			req.Program = workload.Generate(workload.GenConfig{
				Seed: s, Pressure: sh.a, LoopDepth: 2, Irregularity: 0.3,
			}).String()
			req.Options.NumRegs = sh.b
		}
		j, err := newJob(req, sh.family)
		if err != nil {
			return job{}, err
		}
		if g.seen[j.id] {
			continue
		}
		g.seen[j.id] = true
		return j, nil
	}
}

// regionGen yields mega-modules submitted as kind "region" in exact
// mode, the only traffic that reaches the gateway's region
// coordinator and the backends' region sessions. The spec names the
// region solver, which is what the coordinator runs: the same spec
// sent as a plain job must then give the identical result.
type regionGen struct {
	rng  *rand.Rand
	arms int
	seen map[string]bool
}

func newRegionGen(seed int64, arms int) *regionGen {
	return &regionGen{rng: rand.New(rand.NewSource(seed)), arms: arms, seen: make(map[string]bool)}
}

func (g *regionGen) next() (job, error) {
	for {
		req := api.JobRequest{
			Kind:    "region",
			Options: thermflow.Options{Solver: thermflow.SolverRegion},
			Program: workload.GenerateMega(workload.MegaConfig{
				Seed: g.rng.Int63(), Arms: g.arms, Depth: 2,
			}).String(),
		}
		j, err := newJob(req, "mega")
		if err != nil {
			return job{}, err
		}
		if g.seen[j.id] {
			continue
		}
		g.seen[j.id] = true
		return j, nil
	}
}

// stream memoizes a generator so every consumer sees the same sequence.
type stream struct {
	g    generator
	jobs []job
}

func (s *stream) at(i int) (job, error) {
	for len(s.jobs) <= i {
		j, err := s.g.next()
		if err != nil {
			return job{}, fmt.Errorf("generating request %d: %w", len(s.jobs), err)
		}
		s.jobs = append(s.jobs, j)
	}
	return s.jobs[i], nil
}

// arrivals draws an open-loop Poisson schedule: offsets in seconds
// from the start of the window, all below seconds.
func arrivals(seed int64, rate, seconds float64) []float64 {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	var out []float64
	for t := rng.ExpFloat64() / rate; t < seconds; t += rng.ExpFloat64() / rate {
		out = append(out, t)
	}
	return out
}
