package jobs

import (
	"context"
	"encoding/json"
	"fmt"
	"sync/atomic"
	"time"

	"thermflow"
	"thermflow/api"
	"thermflow/internal/batch"
	"thermflow/internal/cachestore"
)

// Engine is a backend's compile engine: a worker pool with
// single-flight deduplication over a two-tier result store keyed by job
// ID. What it computes, caches, persists and hands back is the rendered
// wire answer (*api.CompileResponse, a few KiB), never the
// *thermflow.Compiled behind it, whose per-instruction thermal states
// run to hundreds of KiB. A compilation is garbage as soon as the job
// that produced it has rendered it, so retaining finished jobs costs
// only their answers.
type Engine struct {
	r *batch.Runner

	// obs, when set, is injected into every compile's context so the
	// engine's solver runs report wall-clock timings (the /metrics
	// solver histograms).
	obs atomic.Pointer[thermflow.SolverObserver]
}

// EngineConfig parameterizes OpenEngine.
type EngineConfig struct {
	// Workers is the compile worker-pool size (<= 0 selects
	// GOMAXPROCS).
	Workers int
	// CacheMemBytes caps the in-memory result tier (<= 0 selects the
	// cachestore default, 256 MiB). Entries are charged their encoded
	// size; least-recently-used answers are evicted first.
	CacheMemBytes int64
	// CacheDir, when non-empty, adds a persistent on-disk result tier
	// in that directory (created if missing): a restarted engine
	// pointed at the same directory comes back warm, and a replayed job
	// log finds its finished jobs' answers there. Damaged entries are
	// dropped and recompiled, never trusted.
	CacheDir string
	// CacheDiskBytes caps the disk tier (<= 0 selects the cachestore
	// default, 1 GiB); stalest entries are evicted first.
	CacheDiskBytes int64
	// ErrTTL bounds how long a compile failure is served from the
	// memory tier before the job is retried (<= 0 selects the batch
	// default, 30s).
	ErrTTL time.Duration
}

// Result is one compile's outcome on the engine.
type Result struct {
	// Response is the rendered answer with Cached false (nil when Err
	// is set). Every holder of one job ID may share it — treat it as
	// read-only.
	Response *api.CompileResponse
	// Err is the compile's isolated failure.
	Err error
	// Cached reports whether the answer came from the result store or
	// an identical compile in flight.
	Cached bool
}

// EngineStats are the engine's cache counters.
type EngineStats struct {
	// Hits counts compiles served from the store or an identical
	// compile in flight, Misses compiles run, Panics compiles that
	// panicked (isolated into their result).
	Hits, Misses, Panics uint64
	// Mem and Disk detail the store's two tiers; Disk stays zero
	// without a cache directory.
	Mem, Disk   cachestore.TierStats
	DiskEnabled bool
}

// NewEngine returns a memory-only engine over a worker pool of the
// given size; workers <= 0 selects GOMAXPROCS.
func NewEngine(workers int) *Engine {
	e, err := OpenEngine(EngineConfig{Workers: workers})
	if err != nil {
		// Unreachable: only the disk tier can fail to open.
		panic(fmt.Sprintf("jobs: memory-only engine: %v", err))
	}
	return e
}

// OpenEngine builds an engine over a byte-capped memory tier and, when
// cfg.CacheDir is set, a persistent disk tier. It fails only when the
// disk tier cannot be opened.
func OpenEngine(cfg EngineConfig) (*Engine, error) {
	store, err := cachestore.Open(cachestore.Config{
		MaxMemBytes:  cfg.CacheMemBytes,
		SizeOf:       responseSize,
		Dir:          cfg.CacheDir,
		MaxDiskBytes: cfg.CacheDiskBytes,
		Codec:        responseCodec{},
	})
	if err != nil {
		return nil, fmt.Errorf("jobs: opening result store: %w", err)
	}
	r := batch.NewRunnerStore(cfg.Workers, store)
	r.SetErrTTL(cfg.ErrTTL)
	return &Engine{r: r}, nil
}

// Workers returns the worker-pool size.
func (e *Engine) Workers() int { return e.r.Workers() }

// Inflight returns how many keyed compilations currently hold a
// single-flight slot (the /metrics inflight gauge).
func (e *Engine) Inflight() int { return e.r.Inflight() }

// SetSolverObserver installs obs as the engine's solver-timing
// observer: every subsequent compile reports its fixpoint runs to obs,
// alongside any observer the caller put on the compile's context. nil
// removes it.
func (e *Engine) SetSolverObserver(obs thermflow.SolverObserver) {
	if obs == nil {
		e.obs.Store(nil)
		return
	}
	e.obs.Store(&obs)
}

// Stats returns the cache counters accumulated so far.
func (e *Engine) Stats() EngineStats {
	s, st := e.r.Stats(), e.r.Store().Stats()
	return EngineStats{
		Hits: s.Hits, Misses: s.Misses, Panics: s.Panics,
		Mem: st.Mem, Disk: st.Disk, DiskEnabled: st.DiskEnabled,
	}
}

// ResetCache drops every stored answer from both tiers and zeroes the
// counters. The first error removing disk entries is returned; the
// cache is cleared regardless.
func (e *Engine) ResetCache() error { return e.r.ResetCache() }

// compile runs cjobs[i] under the key ids[i], a job ID, and renders
// each compilation right away. emit (when non-nil) sees each result as
// it completes, on the worker goroutines; the return value holds them
// all, in order.
func (e *Engine) compile(ctx context.Context, ids []string, cjobs []thermflow.CompileJob, emit func(int, Result)) []Result {
	bjobs := make([]batch.Job, len(cjobs))
	for i, cj := range cjobs {
		bjobs[i] = batch.Job{Key: ids[i], Fn: func(ctx context.Context) (any, error) {
			if obs := e.obs.Load(); obs != nil {
				ctx = thermflow.WithSolverObserver(ctx, *obs)
			}
			c, err := cj.Program.CompileContext(ctx, cj.Opts)
			if err != nil {
				return nil, err
			}
			return api.ResponseFor(c, false), nil
		}}
	}
	var bemit func(int, batch.Result)
	if emit != nil {
		bemit = func(i int, r batch.Result) { emit(i, toResult(r)) }
	}
	raw := e.r.RunStream(ctx, bjobs, bemit)
	out := make([]Result, len(raw))
	for i, r := range raw {
		out[i] = toResult(r)
	}
	return out
}

func toResult(r batch.Result) Result {
	resp, _ := r.Value.(*api.CompileResponse)
	return Result{Response: resp, Err: r.Err, Cached: r.Cached}
}

// lookup peeks the result store for id's answer without compiling
// anything. Both tiers are consulted, so a restarted engine resolves
// IDs straight from the disk tier; this is how a replayed job log
// re-materializes finished jobs.
func (e *Engine) lookup(id string) (*api.CompileResponse, bool) {
	v, ok := e.r.Store().Get(id)
	if !ok {
		return nil, false
	}
	resp, ok := v.(*api.CompileResponse)
	return resp, ok
}

// responseCodec persists answers as JSON. Anything else — in
// particular the batch layer's cached failures — is unencodable and
// stays memory-only.
type responseCodec struct{}

func (responseCodec) Encode(v any) ([]byte, error) {
	resp, ok := v.(*api.CompileResponse)
	if !ok {
		return nil, cachestore.ErrUnencodable
	}
	return json.Marshal(resp)
}

func (responseCodec) Decode(data []byte) (any, error) {
	resp := new(api.CompileResponse)
	if err := json.Unmarshal(data, resp); err != nil {
		return nil, err
	}
	return resp, nil
}

// responseSize charges an answer its encoded size in the memory tier.
func responseSize(v any) int64 {
	data, err := responseCodec{}.Encode(v)
	if err != nil {
		return 512 // cached failures
	}
	return int64(len(data))
}
