package main

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"time"

	"thermflow"
	"thermflow/api"
	"thermflow/internal/cfg"
	"thermflow/internal/floorplan"
	"thermflow/internal/ir"
	"thermflow/internal/joblog"
	"thermflow/internal/power"
	"thermflow/internal/regalloc"
	"thermflow/internal/tdfa"
	"thermflow/internal/thermal"
	"thermflow/internal/trace"
)

// layerRun is what the traced run hands to the per-layer analysis.
type layerRun struct {
	w        workloadSpec
	seed     int64
	pool     *pool
	client   *client
	samples  []sample
	before   map[string]map[string]float64
	lag      []float64
	spanPath string
	prov     provenance
}

const (
	// traceFetch bounds how many traced jobs' timelines are read back;
	// the pool retains 512 timelines per process, most recent first.
	traceFetch = 300
	// probeSpecs is how many distinct specs of the run are re-run
	// layer by layer in process: three of each program family.
	probeSpecs = 9
	// probeBudget bounds repeated timing of one layer call on one spec.
	probeBudget  = 20 * time.Millisecond
	probeMaxReps = 5
	// walAppends is how many timed Append+Sync pairs the job-log probe makes.
	walAppends = 64
	// stepBatch is how many thermal steps one timed span covers.
	stepBatch, stepBatches = 2000, 15
)

// crossoverArms are the two mega-module sizes region.vs_plain_ratio is
// measured at (the larger is reported as region.vs_plain_ratio), with
// crossoverSpecs specs each.
var crossoverArms = [2]int{4, 8}

const crossoverSpecs = 3

// recorder collects the benchmark's own spans.
type recorder struct{ spans []span }

func (r *recorder) add(name, traceID, id, parent, jobID string, start, end time.Time, attrs map[string]string) {
	r.spans = append(r.spans, span{
		Name: name, Service: "perfbench", TraceID: traceID, SpanID: id, ParentID: parent,
		JobID: jobID, StartUS: start.UnixMicro(), EndUS: end.UnixMicro(), Attrs: attrs,
	})
}

// client records a traced job as the client saw it, from send to answer.
func (r *recorder) client(s *sample, attrs map[string]string) {
	attrs["kind"] = s.j.req.Kind
	r.add("client.job", s.traceID, s.spanID, "", s.j.id, s.sent, s.end, attrs)
}

// timed runs f, records it as a span and returns its duration.
func (r *recorder) timed(name, traceID, parent, jobID string, f func()) time.Duration {
	start := time.Now()
	f()
	end := time.Now()
	r.add(name, traceID, trace.NewSpanID(), parent, jobID, start, end, nil)
	return end.Sub(start)
}

// layerMetrics reads the pool's traces and metrics for the run, runs
// the in-process layer probes and the region crossover probe, writes
// every span to lr.spanPath and returns the per-layer metrics.
func layerMetrics(ctx context.Context, lr layerRun) (map[string]metric, error) {
	after, err := scrapeAll(ctx, lr.pool)
	if err != nil {
		return nil, err
	}
	rec := &recorder{}
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	// Client spans for every traced job, and the pool's spans for the
	// most recent ones.
	var traced []*sample
	var untracedLat, tracedLat []float64
	var respBytes []float64
	submits, dups := 0, 0
	for i := range lr.samples {
		s := &lr.samples[i]
		if s.out.err != nil {
			continue
		}
		respBytes = append(respBytes, float64(s.out.bytes))
		if s.j.req.Kind != "region" {
			submits++
			if !s.out.created {
				dups++
			}
		}
		if !s.traced {
			untracedLat = append(untracedLat, ms(s.latency()))
			continue
		}
		tracedLat = append(tracedLat, ms(s.latency()))
		rec.client(s, map[string]string{"due_us": strconv.FormatInt(s.due.UnixMicro(), 10)})
		traced = append(traced, s)
	}
	slices.SortFunc(traced, func(a, b *sample) int { return b.end.Compare(a.end) })
	traced = traced[:min(len(traced), traceFetch)]
	served, err := fetchTraces(ctx, lr.pool, traced)
	if err != nil {
		return nil, err
	}

	// Region crossover: the same spec as a region job and as a plain job.
	beforeProbe, err := scrapeAll(ctx, lr.pool)
	if err != nil {
		return nil, err
	}
	cross, err := crossover(ctx, lr.client, lr.seed, rec)
	if err != nil {
		return nil, err
	}
	afterProbe, err := scrapeAll(ctx, lr.pool)
	if err != nil {
		return nil, err
	}
	crossServed, err := fetchTraces(ctx, lr.pool, cross.samples)
	if err != nil {
		return nil, err
	}
	served = append(served, crossServed...)

	spanMetrics(served, put)
	put("server.response_kb_mean", mean(respBytes)/1024, "KiB")
	put("jobs.dedup_ratio", ratio(float64(dups), float64(submits)), "ratio")
	put("trace.overhead_ms_p50", median(tracedLat)-median(untracedLat), "ms")
	put("gen.lag_ms_p99", percentile(lr.lag, 99), "ms")

	// Counters from /metrics, over the load window.
	delta := func(proc, name string, labels ...string) float64 {
		return series(after[proc], name, labels...) - series(lr.before[proc], name, labels...)
	}
	var shares []float64
	var routed, shed, hits, misses, memHits, diskPuts, diskBytes float64
	for _, b := range lr.pool.backends {
		var share float64
		for _, route := range []string{`route="/v2/jobs"`, `route="/v2/regions/solve"`, `route="/v2/regions/collect"`} {
			share += delta(b.name, "thermflow_http_requests_total", route, `method="POST"`)
		}
		shares = append(shares, share)
		routed += share
		shed += delta(b.name, "thermflow_jobs_shed_total")
		hits += delta(b.name, "thermflow_cache_requests_total", `outcome="hit"`)
		misses += delta(b.name, "thermflow_cache_requests_total", `outcome="miss"`)
		memHits += delta(b.name, "thermflow_cache_tier_events_total", `tier="memory"`, `event="hit"`)
		diskPuts += delta(b.name, "thermflow_cache_tier_events_total", `tier="disk"`, `event="put"`)
		diskBytes += delta(b.name, "thermflow_cache_tier_bytes", `tier="disk"`)
	}
	put("gateway.failovers", delta(lr.pool.gateway.name, "thermflow_gateway_failovers_total"), "count")
	put("gateway.backend_share_max", ratio(slices.Max(shares), routed), "ratio")
	put("jobs.shed", shed, "count")
	put("cache.hit_ratio", ratio(hits, hits+misses), "ratio")
	put("cache.mem_hits", memHits, "count")
	put("cache.disk_puts", diskPuts, "count")
	put("cache.put_kb_mean", ratio(diskBytes, diskPuts)/1024, "KiB")

	// Region coordination: per region job, from the load when the
	// workload sends region jobs, else from the crossover probe.
	regionSamples := cross.regionSamples()
	reqBefore, reqAfter := beforeProbe, afterProbe
	if lr.w.region {
		regionSamples = nil
		for i := range lr.samples {
			if lr.samples[i].out.err == nil {
				regionSamples = append(regionSamples, &lr.samples[i])
			}
		}
		reqBefore, reqAfter = lr.before, after
	}
	var rounds []float64
	for _, s := range regionSamples {
		if s.out.status.Result != nil {
			rounds = append(rounds, float64(s.out.status.Result.Iterations))
		}
	}
	var regionReqs float64
	for _, b := range lr.pool.backends {
		for _, route := range []string{`route="/v2/regions/solve"`, `route="/v2/regions/collect"`} {
			regionReqs += series(reqAfter[b.name], "thermflow_http_requests_total", route) -
				series(reqBefore[b.name], "thermflow_http_requests_total", route)
		}
	}
	put("region.rounds_mean", mean(rounds), "count")
	put("region.requests_per_job", ratio(regionReqs, float64(len(regionSamples))), "count")
	put("region.vs_plain_ratio_small", cross.ratio[0], "ratio")
	put("region.vs_plain_ratio", cross.ratio[1], "ratio")

	// In-process layers, on a seeded sample of the run's own specs.
	if err := probeLayers(lr, rec, put); err != nil {
		return nil, err
	}

	all := append(served, rec.spans...)
	slices.SortFunc(all, func(a, b span) int { return cmp.Compare(a.StartUS, b.StartUS) })
	if err := writeSpanFile(lr.spanPath, lr.prov, all); err != nil {
		return nil, err
	}
	return m, nil
}

// spanMetrics derives self times and phase durations from the pool's
// spans, grouped by trace.
func spanMetrics(served []span, put func(string, float64, string)) {
	byTrace := make(map[string][]span)
	for _, sp := range served {
		byTrace[sp.TraceID] = append(byTrace[sp.TraceID], sp)
	}
	var gwSelf, beSelf, queued, runMS, overhead []float64
	var roundMS, solveMS, sessWait []float64
	for _, spans := range byTrace {
		for _, sp := range spans {
			switch {
			case sp.Name == "http.server" && sp.Service == "thermflowgate":
				var kids []span
				for _, k := range spans {
					if k.ParentID == sp.SpanID && k.Service == "thermflowd" && k.Name == "http.server" {
						kids = append(kids, k)
					}
				}
				if len(kids) > 0 {
					gwSelf = append(gwSelf, float64(selfUS(sp, kids))/1e3)
				}
			case sp.Name == "http.server" && sp.Service == "thermflowd":
				var jobSpans []span
				for _, k := range spans {
					if k.Service == "thermflowd" && (k.Name == "job.queued" || k.Name == "job.run" || k.Name == "job.solve") {
						jobSpans = append(jobSpans, k)
					}
				}
				beSelf = append(beSelf, float64(selfUS(sp, jobSpans))/1e3)
			case sp.Name == "job.queued":
				queued = append(queued, float64(sp.durUS())/1e3)
			case sp.Name == "job.run":
				runMS = append(runMS, float64(sp.durUS())/1e3)
				var solves []span
				for _, k := range spans {
					if k.Name == "job.solve" && k.ParentID == sp.SpanID {
						solves = append(solves, k)
					}
				}
				overhead = append(overhead, float64(selfUS(sp, solves))/1e3)
			case sp.Name == "region.round":
				roundMS = append(roundMS, float64(sp.durUS())/1e3)
			case sp.Name == "region.solve":
				solveMS = append(solveMS, float64(sp.durUS())/1e3)
				if q, err := strconv.ParseInt(sp.Attrs["queue_us"], 10, 64); err == nil {
					sessWait = append(sessWait, float64(q)/1e3)
				}
			}
		}
	}
	put("gateway.self_ms_p50", median(gwSelf), "ms")
	put("server.self_ms_p50", median(beSelf), "ms")
	put("jobs.queue_wait_ms_p50", median(queued), "ms")
	put("jobs.queue_wait_ms_p99", percentile(queued, 99), "ms")
	put("jobs.run_ms_p50", median(runMS), "ms")
	put("batch.overhead_ms_p50", median(overhead), "ms")
	put("region.round_ms_p50", median(roundMS), "ms")
	put("region.solve_ms_p50", median(solveMS), "ms")
	put("region.session_wait_ms_p50", median(sessWait), "ms")
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// fetchTraces reads the timelines of the given jobs and keeps the
// spans of those jobs' own traces. The gateway answers with its own
// spans merged with the owning backend's, but for an ID that also ran
// as a region job it answers with the coordinator's view alone, so
// every backend is asked directly as well.
func fetchTraces(ctx context.Context, p *pool, samples []*sample) ([]span, error) {
	want := make(map[string]bool)
	var ids []string
	for _, s := range samples {
		want[s.traceID] = true
		if !slices.Contains(ids, s.j.id) {
			ids = append(ids, s.j.id)
		}
	}
	seen := make(map[string]bool)
	var out []span
	for _, id := range ids {
		for _, pr := range p.procs() {
			tr, err := getTrace(ctx, pr.url, id)
			if err != nil {
				return nil, err
			}
			for _, ws := range tr.Spans {
				if want[ws.TraceID] && !seen[ws.SpanID] {
					seen[ws.SpanID] = true
					out = append(out, fromWire(id, ws))
				}
			}
		}
	}
	return out, nil
}

// getTrace reads GET /v2/jobs/{id}/trace; a timeline the process does
// not hold (never seen, or aged out of its bounded store) is empty.
func getTrace(ctx context.Context, base, id string) (api.TraceResponse, error) {
	var tr api.TraceResponse
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v2/jobs/"+id+"/trace", nil)
	if err != nil {
		return tr, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return tr, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return tr, err
	}
	switch resp.StatusCode {
	case http.StatusNotFound:
		return tr, nil
	case http.StatusOK:
		if err := json.Unmarshal(b, &tr); err != nil {
			return tr, fmt.Errorf("decoding trace of %s from %s: %w", id, base, err)
		}
		return tr, nil
	}
	return tr, fmt.Errorf("GET %s trace of %s: HTTP %d", base, id, resp.StatusCode)
}

// crossResult is the region crossover probe's outcome.
type crossResult struct {
	samples []*sample
	ratio   [2]float64 // region latency over plain latency, medians, per size
}

func (c crossResult) regionSamples() []*sample {
	var out []*sample
	for _, s := range c.samples {
		if s.j.req.Kind == "region" && s.out.err == nil {
			out = append(out, s)
		}
	}
	return out
}

// crossover sends each probe mega-module as a region job and then as
// a plain job (the region job leaves no result behind, so the plain
// job compiles afresh), checks the two answers agree, and reports the
// latency ratio at each module size.
func crossover(ctx context.Context, c *client, seed int64, rec *recorder) (crossResult, error) {
	var res crossResult
	for k, arms := range crossoverArms {
		g := newRegionGen(seed^int64(0xc0ffee*(k+1)), arms)
		var rl, pl []float64
		for i := 0; i < crossoverSpecs; i++ {
			rj, err := g.next()
			if err != nil {
				return res, err
			}
			pr := rj.req
			pr.Kind = ""
			pj, err := newJob(pr, "mega")
			if err != nil {
				return res, err
			}
			var pair [2]*sample
			for n, j := range []job{rj, pj} {
				s := &sample{j: j, traced: true}
				s.due = time.Now()
				s.dispatched = s.due
				runSample(ctx, c, s)
				if s.out.err != nil {
					return res, fmt.Errorf("crossover %d-arm job: %w", arms, s.out.err)
				}
				rec.client(s, map[string]string{"probe": "crossover", "arms": strconv.Itoa(arms)})
				pair[n] = s
				res.samples = append(res.samples, s)
			}
			a, _ := wireResult(pair[0].out.status.Result)
			b, _ := wireResult(pair[1].out.status.Result)
			if string(a) != string(b) {
				return res, fmt.Errorf("region result differs from plain result for %d-arm spec %s", arms, rj.id[:12])
			}
			rl = append(rl, ms(pair[0].latency()))
			pl = append(pl, ms(pair[1].latency()))
		}
		res.ratio[k] = median(rl) / median(pl)
	}
	return res, nil
}

// probeSample picks up to probeSpecs distinct answered specs, seeded,
// taking the workload's families in turn so each is probed.
func probeSample(samples []sample, seed int64) []job {
	seen := make(map[string]bool)
	byFamily := make(map[string][]job)
	for _, s := range samples {
		if s.out.err == nil && !seen[s.j.id] {
			seen[s.j.id] = true
			byFamily[s.j.family] = append(byFamily[s.j.family], s.j)
		}
	}
	families := slices.Sorted(maps.Keys(byFamily))
	rng := rand.New(rand.NewSource(seed ^ 0x1a7e5))
	for _, f := range families {
		js := byFamily[f]
		rng.Shuffle(len(js), func(a, b int) { js[a], js[b] = js[b], js[a] })
	}
	var out []job
	for i := 0; len(out) < probeSpecs; i++ {
		took := false
		for _, f := range families {
			if i < len(byFamily[f]) && len(out) < probeSpecs {
				out = append(out, byFamily[f][i])
				took = true
			}
		}
		if !took {
			break
		}
	}
	return out
}

// probeLayers times each layer's public entry point on a seeded sample
// of the run's distinct specs, plus the job log on the run's disk and
// one thermal step.
func probeLayers(lr layerRun, rec *recorder, put func(string, float64, string)) error {
	specs := probeSample(lr.samples, lr.seed)
	var parse, instrs, loops, freq, alloc, rounds, spilled []float64
	var analyze, iters, evals, perEval, encode, encBytes, jsonUS []float64
	for _, j := range specs {
		tid := trace.NewTraceID()
		root := trace.NewSpanID()
		start := time.Now()
		// reps repeats a layer call until probeBudget is spent, at most
		// probeMaxReps times, recording a span per call.
		reps := func(name string, f func()) []float64 {
			var out []float64
			var spent time.Duration
			for len(out) < probeMaxReps && (len(out) == 0 || spent < probeBudget) {
				d := rec.timed(name, tid, root, j.id, f)
				spent += d
				out = append(out, float64(d))
			}
			return out
		}
		var fn *ir.Function
		var err error
		for _, d := range reps("ir.parse", func() { fn, err = ir.Parse(j.spec.Source) }) {
			parse = append(parse, d/1e3)
		}
		if err != nil {
			return fmt.Errorf("probe parse: %w", err)
		}
		instrs = append(instrs, float64(fn.NumInstrs()))
		var g *cfg.Graph
		var li *cfg.LoopInfo
		for _, d := range reps("cfg.build_loops", func() { g = cfg.Build(fn); li = g.Loops(j.spec.Opts.DefaultTrip) }) {
			loops = append(loops, d/1e3)
		}
		for _, d := range reps("cfg.freq", func() { cfg.EstimateFreq(g, li) }) {
			freq = append(freq, d/1e6)
		}
		opts := j.spec.Opts
		nregs := opts.NumRegs
		if nregs <= 0 {
			nregs = 64
		}
		tech := power.Default65nm()
		fp, err := floorplan.New(nregs, 8, 8, tech.CellEdge, opts.Layout)
		if err != nil {
			return err
		}
		var a *regalloc.Allocation
		for _, d := range reps("regalloc.allocate", func() {
			a, err = regalloc.Allocate(fn, regalloc.Config{
				NumRegs: nregs, Policy: opts.Policy, Seed: opts.Seed, HeatSeed: opts.HeatSeed,
				FP: fp, DefaultTrip: opts.DefaultTrip,
			})
		}) {
			alloc = append(alloc, d/1e6)
		}
		if err != nil {
			return fmt.Errorf("probe allocate: %w", err)
		}
		rounds = append(rounds, float64(a.Rounds))
		spilled = append(spilled, float64(len(a.Spilled)))
		var r *tdfa.Result
		for _, d := range reps("tdfa.analyze", func() {
			r, err = tdfa.Analyze(a.Fn, tdfa.Config{
				Tech: tech, FP: fp, Alloc: a, Solver: opts.Solver, Regions: opts.Regions,
				RegionSlack: opts.RegionDelta, Delta: opts.Delta, MaxIter: opts.MaxIter,
				Kappa: opts.Kappa, JoinOp: opts.JoinOp, WithLeakage: opts.WithLeakage,
				NoWarmStart: opts.NoWarmStart, DefaultTrip: opts.DefaultTrip,
			})
		}) {
			analyze = append(analyze, d/1e6)
			if err == nil && r.BlockSweeps > 0 {
				perEval = append(perEval, d/1e3/float64(r.BlockSweeps))
			}
		}
		if err != nil {
			return fmt.Errorf("probe analyze: %w", err)
		}
		iters = append(iters, float64(r.Iterations))
		evals = append(evals, float64(r.BlockSweeps))

		p, err := thermflow.Parse(j.spec.Source)
		if err != nil {
			return err
		}
		c, err := p.Compile(opts)
		if err != nil {
			return err
		}
		var enc []byte
		for _, d := range reps("codec.encode", func() { enc, err = thermflow.EncodeCompiled(c) }) {
			encode = append(encode, d/1e3)
		}
		if err != nil {
			return fmt.Errorf("probe encode: %w", err)
		}
		encBytes = append(encBytes, float64(len(enc)))
		for _, d := range reps("api.json", func() {
			_, err = json.Marshal(api.JobStatus{ID: j.id, State: "done", Result: api.ResponseFor(c, false)})
		}) {
			jsonUS = append(jsonUS, d/1e3)
		}
		rec.add("probe.spec", tid, root, "", j.id, start, time.Now(), map[string]string{"family": j.family})
	}
	put("ir.parse_us_p50", median(parse), "us")
	put("ir.instrs_mean", mean(instrs), "count")
	put("cfg.build_loops_us_p50", median(loops), "us")
	put("cfg.freq_ms_p50", median(freq), "ms")
	put("regalloc.allocate_ms_p50", median(alloc), "ms")
	put("regalloc.rounds_mean", mean(rounds), "count")
	put("regalloc.spilled_mean", mean(spilled), "count")
	put("tdfa.analyze_ms_p50", median(analyze), "ms")
	put("tdfa.iterations_mean", mean(iters), "count")
	put("tdfa.block_evals_mean", mean(evals), "count")
	put("tdfa.us_per_block_eval", median(perEval), "us")
	put("codec.encode_us_p50", median(encode), "us")
	put("codec.bytes_mean", mean(encBytes), "B")
	put("api.json_us_p50", median(jsonUS), "us")

	wal, err := probeWAL(lr, rec)
	if err != nil {
		return err
	}
	put("joblog.append_sync_us_p50", wal, "us")
	put("thermal.step_ns", probeStep(rec), "ns")
	return nil
}

// probeWAL times Append followed by Sync on a job log in the pool's
// directory, so on the same disk the backends log to. The payload is a
// spec from the run.
func probeWAL(lr layerRun, rec *recorder) (float64, error) {
	dir := filepath.Join(lr.pool.dir, "probe-wal")
	l, _, err := joblog.Open(dir, joblog.Options{})
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	payload := lr.samples[0].j.body
	tid := trace.NewTraceID()
	var us []float64
	for i := 0; i < walAppends; i++ {
		d := rec.timed("joblog.append_sync", tid, "", "", func() {
			if err == nil {
				err = l.Append(1, payload)
			}
			if err == nil {
				err = l.Sync()
			}
		})
		us = append(us, float64(d)/1e3)
	}
	if cerr := l.Close(); err == nil {
		err = cerr
	}
	return median(us), err
}

// probeStep times Grid.StepWith on the default 8×8 grid, one stable
// substep per call, in batches; it returns the median ns per step.
func probeStep(rec *recorder) float64 {
	g, err := thermal.NewGrid(8, 8, power.Default65nm())
	if err != nil {
		return 0
	}
	s, scratch := g.NewState(), g.NewState()
	pow := make([]float64, g.NumCells())
	for i := range pow {
		pow[i] = 0.002 * float64(1+i%5)
	}
	dt := g.MaxStableStep()
	tid := trace.NewTraceID()
	var ns []float64
	for b := 0; b < stepBatches; b++ {
		d := rec.timed("thermal.step", tid, "", "", func() {
			for i := 0; i < stepBatch; i++ {
				g.StepWith(s, pow, dt, scratch)
			}
		})
		ns = append(ns, float64(d)/stepBatch)
	}
	return median(ns)
}

// writeSpanFile writes the run's provenance and then every span.
func writeSpanFile(path string, prov provenance, spans []span) error {
	head, err := json.Marshal(map[string]any{"provenance": prov})
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(head, '\n'), 0o666); err != nil {
		return err
	}
	return appendSpans(path, spans)
}
