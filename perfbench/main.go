// Command perfbench is thermflow's end-to-end benchmark of the served
// compile path. It starts a thermflowgate in front of two thermflowd
// backends built from this checkout, drives one of three seeded
// workloads through the gateway's v2 job API, checks every answer, and
// prints the client-visible metrics (untraced run) or the per-layer
// metrics (traced run) as one JSON object on the last line.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload kernels-open --seed 1 --seconds 15 --trace 0
//
// run.sh builds the binaries into .bench_build and runs this program.
// BENCHMARK.json lists the workloads and metrics.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

// workloadSpec is one traffic mix. Why each exists is recorded in
// BENCHMARK.json.
type workloadSpec struct {
	open    bool    // open loop at rate arrivals/s; otherwise closed loop
	rate    float64 // open-loop arrival rate
	clients int     // closed-loop clients; 0 = one per CPU
	region  bool    // jobs are kind "region"
	gen     func(seed int64) generator
	// pregen is how many requests per second of window to generate
	// before timing starts, so generation does not compete with the
	// pool for CPU; the stream extends itself if a run needs more.
	pregen int
}

// regionArms is the arm count of the mega-modules region-fanout sends.
// At 5 arms a job takes about 0.45 s on a 2-vCPU host, so a 30 s run
// answers 55–85 jobs and its tail stays at p75 (40–99 samples) even as
// the host's speed drifts.
const regionArms = 5

var workloads = map[string]workloadSpec{
	// 150 jobs/s is about half of what the pool sustained on this mix
	// when overloaded on a 2-vCPU host (300–490 jobs/s).
	"kernels-open": {
		open: true, rate: 150,
		gen: func(seed int64) generator { return newKernelGen(seed) },
	},
	"programs-closed": {
		gen:    func(seed int64) generator { return newProgramGen(seed) },
		pregen: 40,
	},
	"region-fanout": {
		clients: 1, region: true,
		gen:    func(seed int64) generator { return newRegionGen(seed, regionArms) },
		pregen: 4,
	},
}

// loadGrace bounds how long jobs sent in the window may take to finish.
const loadGrace = 90 * time.Second

// setupRuns is how many times a run starts the pool; setup_s is the
// median. Every start but the last is stopped straight away.
const setupRuns = 5

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type provenance struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func main() {
	wl := flag.String("workload", "", "workload: kernels-open, programs-closed or region-fanout")
	seed := flag.Int64("seed", 1, "input generator seed")
	seconds := flag.Int("seconds", 15, "measurement window in seconds")
	traced := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	binDir := flag.String("bin", ".bench_build/bin", "directory holding thermflowd and thermflowgate")
	workDir := flag.String("work", ".bench_build/perfbench", "directory for pool state and span files")
	flag.Parse()
	rep, err := run(*wl, *seed, *seconds, *traced == 1, *binDir, *workDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := emit(rep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !rep.Correct {
		os.Exit(1)
	}
}

// run measures one workload and returns its report. A run whose jobs
// were all answered but not all correctly returns a report with
// Correct false; an error means no report could be made.
func run(wl string, seed int64, seconds int, traced bool, binDir, workDir string) (report, error) {
	var rep report
	w, ok := workloads[wl]
	if !ok {
		return rep, fmt.Errorf("unknown workload %q", wl)
	}
	if seconds < 1 {
		return rep, fmt.Errorf("--seconds must be at least 1")
	}
	cpus := runtime.NumCPU()
	prov := provenance{
		Workload: wl, Seed: seed, Seconds: seconds, Trace: traced,
		CPUs: cpus, GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commitOf("."),
	}
	pj, _ := json.Marshal(prov)
	fmt.Println("provenance", string(pj))
	if err := os.MkdirAll(workDir, 0o777); err != nil {
		return rep, err
	}
	ctx := context.Background()
	window := time.Duration(seconds) * time.Second

	// Inputs first: the pool receives only the generated request bodies.
	st := &stream{g: w.gen(seed)}
	var sched []float64
	var jobsOpen []job
	if w.open {
		sched = arrivals(seed, w.rate, float64(seconds))
		for i := range sched {
			j, err := st.at(i)
			if err != nil {
				return rep, err
			}
			jobsOpen = append(jobsOpen, j)
		}
	} else if _, err := st.at(w.pregen*seconds - 1); err != nil {
		return rep, err
	}

	var setups []float64
	var p *pool
	for i := 0; i < setupRuns; i++ {
		pi, d, err := startPool(ctx, binDir, workDir, cpus)
		if err != nil {
			return rep, err
		}
		setups = append(setups, d.Seconds())
		if i < setupRuns-1 {
			pi.stop()
		} else {
			p = pi
		}
	}
	defer p.stop()

	conns := cpus
	clients := w.clients
	if clients == 0 {
		clients = cpus
	}
	c := newClient(p.gateway.url, conns)
	defer c.close()

	// In the traced run every other job carries a client-minted trace
	// context; the rest run exactly as in the untraced run, so the
	// latency gap between the halves is the tracing overhead.
	isTraced := func(i int) bool { return traced && i%2 == 0 }

	var before map[string]map[string]float64
	if traced {
		var err error
		if before, err = scrapeAll(ctx, p); err != nil {
			return rep, err
		}
	}
	cpu0, err := p.cpu()
	if err != nil {
		return rep, err
	}
	// Jobs still unanswered this long after the window closes fail, so
	// a stalled pool cannot hold the run past its time limit.
	lctx, cancel := context.WithTimeout(ctx, window+loadGrace)
	defer cancel()
	t0 := time.Now()
	var samples []sample
	if w.open {
		samples = runOpen(lctx, c, jobsOpen, sched, conns, isTraced)
	} else {
		samples, err = runClosed(lctx, c, st, clients, window, isTraced)
		if err != nil {
			return rep, err
		}
		sort.Slice(samples, func(a, b int) bool { return samples[a].idx < samples[b].idx })
	}
	cpu1, err := p.cpu()
	if err != nil {
		return rep, err
	}
	rss, err := p.peakRSS()
	if err != nil {
		return rep, err
	}

	wrong, problems := verify(samples, seed, w.region)
	var lat, lag []float64
	failed, refused := 0, 0
	var lastEnd time.Time
	for _, s := range samples {
		lag = append(lag, ms(s.dispatched.Sub(s.due)))
		if s.out.err != nil {
			failed++
			if s.out.refused {
				refused++
			}
			if len(problems) < 20 {
				problems = append(problems, fmt.Sprintf("job %d: %v", s.idx, s.out.err))
			}
			continue
		}
		lat = append(lat, ms(s.latency()))
		if s.end.After(lastEnd) {
			lastEnd = s.end
		}
	}
	completed := len(lat)
	attempted := len(samples)
	bad := failed + wrong
	correct := bad == 0 && completed > 0
	for _, pr := range problems {
		fmt.Fprintln(os.Stderr, "perfbench: wrong or failed:", pr)
	}

	tailV, tailP := tail(lat)
	rep = report{Correct: correct, Attempted: max(attempted, 1), Failed: bad, Metrics: map[string]metric{}}
	fmt.Printf("summary workload=%s attempted=%d completed=%d failed=%d refused=%d wrong=%d failed_ratio=%.6f latency_tail=p%g over %d samples (%d beyond) gen.lag_ms_p99=%.3f\n",
		wl, attempted, completed, failed-refused, refused, wrong, float64(bad)/float64(max(attempted, 1)),
		tailP, completed, int(math.Round(float64(completed)*(1-tailP/100))), percentile(lag, 99))

	if !traced {
		elapsed := lastEnd.Sub(t0).Seconds()
		rep.Metrics["setup_s"] = metric{median(setups), "s"}
		rep.Metrics["latency_p50_ms"] = metric{median(lat), "ms"}
		rep.Metrics["latency_tail_ms"] = metric{tailV, "ms"}
		rep.Metrics["jobs_per_s"] = metric{float64(completed) / elapsed, "1/s"}
		rep.Metrics["cpu_ms_per_job"] = metric{ms(cpu1-cpu0) / float64(completed), "ms"}
		rep.Metrics["peak_rss_mb"] = metric{float64(rss) / (1 << 20), "MiB"}
	} else {
		spanPath := filepath.Join(workDir, fmt.Sprintf("spans-%s-seed%d.jsonl", wl, seed))
		lm, err := layerMetrics(ctx, layerRun{
			w: w, seed: seed, pool: p, client: c, samples: samples,
			before: before, lag: lag, spanPath: spanPath, prov: prov,
		})
		if err != nil {
			return rep, err
		}
		rep.Metrics = lm
		fmt.Println("spans written to", spanPath)
	}
	return rep, nil
}

// emit prints the report as the last line of standard output.
func emit(rep report) error {
	for k, m := range rep.Metrics {
		if m.Value != m.Value || m.Value > 1e300 || m.Value < -1e300 {
			m.Value = 0 // no sample: JSON has no NaN
			rep.Metrics[k] = m
		}
	}
	b, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// commitOf names the code under test: the git commit when the checkout
// is a repository, else a hash of its Go sources and module file.
func commitOf(root string) string {
	if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	slices.Sort(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(b))
		h.Write(b)
	}
	return "tree-" + hex.EncodeToString(h.Sum(nil))[:16]
}

// scrapeAll reads /metrics from the gateway and every backend.
func scrapeAll(ctx context.Context, p *pool) (map[string]map[string]float64, error) {
	out := make(map[string]map[string]float64)
	for _, pr := range p.procs() {
		m, err := scrape(ctx, pr.url)
		if err != nil {
			return nil, err
		}
		out[pr.name] = m
	}
	return out, nil
}
