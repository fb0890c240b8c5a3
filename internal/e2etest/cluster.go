// Package e2etest is an in-process cluster harness: N thermflowd-
// equivalent backends behind one thermflowgate-equivalent gateway,
// each assembled from the same pieces cmd/thermflowd and
// cmd/thermflowgate wire — the full middleware chain, a /metrics
// registry, durable job/replica write-ahead logs and a two-tier cache
// under per-test temp directories — listening on real ephemeral TCP
// ports. It exists so the shell smoke tests' cluster assertions
// (scripts/gateway_smoke.sh, scripts/durability_smoke.sh) can run as
// ordinary race-clean `go test` cases: backends can be killed
// (connections slammed, like SIGKILL) and restarted on the same
// address and directories, and the gateway can be restarted on its
// durable state dir.
package e2etest

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"thermflow/api"
	"thermflow/client"
	"thermflow/internal/gateway"
	"thermflow/internal/joblog"
	"thermflow/internal/jobs"
	"thermflow/internal/server"
	"thermflow/internal/tenant"
	"thermflow/internal/trace"
)

// Options parameterizes NewCluster. The zero value is a two-backend
// cluster with a fast health checker and default replication.
type Options struct {
	// Backends is the pool size (0 = 2).
	Backends int
	// Workers is each backend's compile pool size (0 = 2).
	Workers int
	// Replicas is the gateway's terminal-status replication factor
	// (0 = the gateway default, negative disables).
	Replicas int
	// HealthInterval is the gateway probe cadence (0 = 100ms — fast,
	// so kill tests converge quickly).
	HealthInterval time.Duration
	// EjectAfter is consecutive probe failures before ejection
	// (0 = 2).
	EjectAfter int
	// Quotas is a tenant quota document (the -quota-file JSON). When
	// set, the gateway resolves bearer tokens to profiles at the edge
	// and stamps the tenant header, and every backend trusts that
	// header against the same table — the cmd wiring in miniature.
	Quotas string
	// MaxQueue and QueueWatermark bound each backend's v2 job queue
	// (0 = unbounded / no admission control).
	MaxQueue       int
	QueueWatermark int
}

// Backend is one pool member: a full thermflowd stack over temp
// cache and WAL directories on a fixed ephemeral address.
type Backend struct {
	URL string
	Dir string

	c    *Cluster
	addr string

	mu      sync.Mutex
	alive   bool
	srv     *server.Server
	metrics *server.Metrics
	httpSrv *http.Server
	logs    []*joblog.Log
}

// Cluster is the running pool plus its gateway.
type Cluster struct {
	tb       testing.TB
	opts     Options
	Backends []*Backend

	GatewayURL string
	stateDir   string
	gwAddr     string

	gwMu      sync.Mutex
	gw        *gateway.Gateway
	gwHTTP    *http.Server
	gwLog     *joblog.Log
	gwMetrics *server.Metrics
}

// quiet drops the harness's gateway logs; the tests assert on state,
// not log text.
func quiet() *log.Logger { return log.New(io.Discard, "", 0) }

// quietSlog drops the harness's structured access logs.
func quietSlog() *slog.Logger { return slog.New(slog.NewJSONHandler(io.Discard, nil)) }

// NewCluster starts the pool and gateway and registers cleanup.
func NewCluster(tb testing.TB, opts Options) *Cluster {
	tb.Helper()
	if opts.Backends == 0 {
		opts.Backends = 2
	}
	if opts.Workers == 0 {
		opts.Workers = 2
	}
	if opts.HealthInterval == 0 {
		opts.HealthInterval = 100 * time.Millisecond
	}
	if opts.EjectAfter == 0 {
		opts.EjectAfter = 2
	}
	c := &Cluster{tb: tb, opts: opts, stateDir: tb.TempDir()}
	for i := 0; i < opts.Backends; i++ {
		b := &Backend{c: c, Dir: tb.TempDir()}
		if err := b.start(); err != nil {
			tb.Fatalf("e2etest: starting backend %d: %v", i, err)
		}
		c.Backends = append(c.Backends, b)
	}
	if err := c.startGateway(); err != nil {
		tb.Fatalf("e2etest: starting gateway: %v", err)
	}
	tb.Cleanup(c.close)
	return c
}

// start assembles and serves one backend on b.addr (an ephemeral port
// on first start, the same address on restart, so the gateway's pool
// view stays valid across a kill).
func (b *Backend) start() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.alive {
		return fmt.Errorf("backend already running")
	}

	eng, err := jobs.OpenEngine(jobs.EngineConfig{
		Workers:  b.c.opts.Workers,
		CacheDir: filepath.Join(b.Dir, "cache"),
	})
	if err != nil {
		return err
	}

	jobsCfg := jobs.Config{
		SnapshotEvery:  32,
		MaxQueue:       b.c.opts.MaxQueue,
		QueueWatermark: b.c.opts.QueueWatermark,
	}
	jl, jrec, err := joblog.Open(filepath.Join(b.Dir, "joblog", "jobs"), joblog.Options{})
	if err != nil {
		return err
	}
	jobsCfg.Log, jobsCfg.Recovery = jl, &jrec
	rl, rrec, err := joblog.Open(filepath.Join(b.Dir, "joblog", "replicas"), joblog.Options{})
	if err != nil {
		jl.Close()
		return err
	}

	metrics := server.NewMetrics()
	tr := trace.NewRecorder("thermflowd", 0, 0)
	srv := server.NewConfig(eng, server.Config{
		Jobs:     jobsCfg,
		Replicas: server.NewReplicaStore(0, rl, &rrec),
		Metrics:  metrics,
		Trace:    tr,
	})

	addr := b.addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		srv.Close()
		jl.Close()
		rl.Close()
		return err
	}
	b.addr = lis.Addr().String()
	b.URL = "http://" + b.addr

	mw := []server.Middleware{
		server.WithRequestID(),
		server.WithTracing(tr),
		server.WithAccessLog(quietSlog()),
		server.WithMetrics(metrics),
		server.WithBodyLimit(server.MaxBodyBytes),
	}
	if b.c.opts.Quotas != "" {
		q, err := tenant.Parse([]byte(b.c.opts.Quotas))
		if err != nil {
			_ = lis.Close()
			srv.Close()
			jl.Close()
			rl.Close()
			return err
		}
		mw = append(mw, server.WithQuotas(server.QuotaConfig{
			Quotas: q, TrustHeader: true, Metrics: metrics,
		}))
	}
	httpSrv := &http.Server{Handler: server.Chain(srv, mw...)}
	go func() { _ = httpSrv.Serve(lis) }()

	b.srv, b.metrics, b.httpSrv = srv, metrics, httpSrv
	b.logs = []*joblog.Log{jl, rl}
	b.alive = true
	return nil
}

// Kill slams the backend: the listener and every open connection are
// closed immediately (http.Server.Close, the in-process analog of
// SIGKILL mid-request), then the job registry and WALs shut so a
// Restart can reopen the same directories.
func (b *Backend) Kill() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.alive {
		return
	}
	b.alive = false
	_ = b.httpSrv.Close()
	b.srv.Close()
	for _, l := range b.logs {
		_ = l.Close()
	}
}

// Restart brings a killed backend back on the same address over the
// same cache and WAL directories, replaying whatever they hold.
func (b *Backend) Restart() error { return b.start() }

// Alive reports whether the backend is serving.
func (b *Backend) Alive() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.alive
}

// Client is a v2 API client pointed directly at this backend.
func (b *Backend) Client() *client.Client { return client.New(b.URL, nil) }

// startGateway assembles and serves the gateway on c.gwAddr,
// persisting drain decisions under c.stateDir so RestartGateway
// replays them.
func (c *Cluster) startGateway() error {
	c.gwMu.Lock()
	defer c.gwMu.Unlock()

	sl, srec, err := joblog.Open(c.stateDir, joblog.Options{})
	if err != nil {
		return err
	}
	metrics := server.NewMetrics()
	tr := trace.NewRecorder("thermflowgate", 0, 0)
	var pool []string
	for _, b := range c.Backends {
		pool = append(pool, b.URL)
	}
	gw, err := gateway.New(gateway.Config{
		Backends:       pool,
		HealthInterval: c.opts.HealthInterval,
		HealthTimeout:  2 * time.Second,
		EjectAfter:     c.opts.EjectAfter,
		Replicas:       c.opts.Replicas,
		Logger:         quiet(),
		Log:            sl,
		Recovery:       &srec,
		Metrics:        metrics,
		Trace:          tr,
	})
	if err != nil {
		sl.Close()
		return err
	}

	addr := c.gwAddr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		gw.Close()
		sl.Close()
		return err
	}
	c.gwAddr = lis.Addr().String()
	c.GatewayURL = "http://" + c.gwAddr

	mw := []server.Middleware{
		server.WithRequestID(),
		server.WithTracing(tr),
		server.WithAccessLog(quietSlog()),
		server.WithMetrics(metrics),
		server.WithBodyLimit(server.MaxBodyBytes),
	}
	if c.opts.Quotas != "" {
		q, err := tenant.Parse([]byte(c.opts.Quotas))
		if err != nil {
			_ = lis.Close()
			gw.Close()
			sl.Close()
			return err
		}
		mw = append(mw, server.WithQuotas(server.QuotaConfig{
			Quotas: q, Metrics: metrics,
		}))
	}
	httpSrv := &http.Server{Handler: server.Chain(gw, mw...)}
	go func() { _ = httpSrv.Serve(lis) }()

	c.gw, c.gwHTTP, c.gwLog, c.gwMetrics = gw, httpSrv, sl, metrics
	return nil
}

// stopGateway closes the gateway half only; backends keep running.
func (c *Cluster) stopGateway() {
	c.gwMu.Lock()
	defer c.gwMu.Unlock()
	if c.gwHTTP == nil {
		return
	}
	_ = c.gwHTTP.Close()
	c.gw.Close()
	_ = c.gwLog.Close()
	c.gwHTTP, c.gw, c.gwLog = nil, nil, nil
}

// RestartGateway bounces the gateway on the same address and durable
// state directory — the in-process port of gateway_smoke.sh's
// drain-survives-restart scenario.
func (c *Cluster) RestartGateway() error {
	c.stopGateway()
	return c.startGateway()
}

// Client is a v2 API client pointed at the gateway.
func (c *Cluster) Client() *client.Client { return client.New(c.GatewayURL, nil) }

// Pool is a fan-out client over every backend, for per-member
// assertions (which member owns a job, per-member cache stats).
func (c *Cluster) Pool() *client.Pool {
	var urls []string
	for _, b := range c.Backends {
		urls = append(urls, b.URL)
	}
	return client.NewPool(urls, nil)
}

// View fetches the gateway's shard view.
func (c *Cluster) View(tb testing.TB) api.GatewayBackendsResponse {
	tb.Helper()
	resp, err := http.Get(c.GatewayURL + "/gateway/backends")
	if err != nil {
		tb.Fatalf("e2etest: GET /gateway/backends: %v", err)
	}
	defer resp.Body.Close()
	var view api.GatewayBackendsResponse
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		tb.Fatalf("e2etest: decoding shard view: %v", err)
	}
	return view
}

// WaitRing blocks until the gateway's hash ring has n members —
// backends come up healthy, but ejections and restarts converge at
// the health checker's cadence.
func (c *Cluster) WaitRing(tb testing.TB, n int) {
	tb.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := http.Get(c.GatewayURL + "/gateway/backends")
		if err == nil {
			var view api.GatewayBackendsResponse
			derr := json.NewDecoder(resp.Body).Decode(&view)
			resp.Body.Close()
			if derr == nil && view.RingBackends == n {
				return
			}
		}
		if time.Now().After(deadline) {
			tb.Fatalf("e2etest: ring never reached %d members", n)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// Scrape fetches a Prometheus exposition and returns its body.
// baseURL is the gateway or a backend URL.
func Scrape(tb testing.TB, baseURL string) string {
	tb.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		tb.Fatalf("e2etest: GET %s/metrics: %v", baseURL, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		tb.Fatalf("e2etest: GET %s/metrics: %s", baseURL, resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		tb.Fatalf("e2etest: reading exposition: %v", err)
	}
	return string(body)
}

func (c *Cluster) close() {
	c.stopGateway()
	for _, b := range c.Backends {
		b.Kill()
	}
}
