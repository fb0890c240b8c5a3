package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// proc is one pool process.
type proc struct {
	name string
	cmd  *exec.Cmd
	url  string
	log  string
}

// pool is a thermflowgate in front of two thermflowd backends, each
// with a durable result cache and job log in the pool's own directory.
type pool struct {
	dir      string
	gateway  *proc
	backends []*proc
}

func (p *pool) procs() []*proc { return append([]*proc{p.gateway}, p.backends...) }

// backendCount is the pool size; workers are split so the pool has as
// many compile workers in total as the host has CPUs (at least one
// each).
const backendCount = 2

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

func spawn(name, bin, dir string, args ...string) (*proc, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	logPath := filepath.Join(dir, name+".log")
	lf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer lf.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = lf, lf
	// The pool dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	return &proc{name: name, cmd: cmd, url: "http://" + addr, log: logPath}, nil
}

// startPool launches the pool in a fresh directory under parent and
// returns once a first job has completed through the gateway. The
// returned duration runs from the first spawn to that job's result.
func startPool(ctx context.Context, binDir, parent string, cpus int) (*pool, time.Duration, error) {
	dir, err := os.MkdirTemp(parent, "pool-")
	if err != nil {
		return nil, 0, err
	}
	p := &pool{dir: dir}
	start := time.Now()
	var urls []string
	for i := 0; i < backendCount; i++ {
		workers := cpus / backendCount
		if i < cpus%backendCount {
			workers++
		}
		workers = max(workers, 1)
		bd := filepath.Join(dir, fmt.Sprintf("backend%d", i))
		b, err := spawn(fmt.Sprintf("thermflowd%d", i), filepath.Join(binDir, "thermflowd"), dir,
			"-workers", strconv.Itoa(workers),
			"-cache-dir", filepath.Join(bd, "cache"),
			"-job-log-dir", filepath.Join(bd, "jobs"))
		if err != nil {
			p.stop()
			return nil, 0, err
		}
		p.backends = append(p.backends, b)
		urls = append(urls, b.url)
	}
	p.gateway, err = spawn("thermflowgate", filepath.Join(binDir, "thermflowgate"), dir,
		"-backends", strings.Join(urls, ","),
		"-state-dir", filepath.Join(dir, "gateway-state"))
	if err != nil {
		p.stop()
		return nil, 0, err
	}

	// Backends first, so the gateway never sees a refused connection
	// (which would count as a failover and could eject a backend).
	hc := &http.Client{Timeout: 5 * time.Second}
	deadline := time.Now().Add(60 * time.Second)
	for _, b := range p.backends {
		for {
			resp, err := hc.Get(b.url + "/v2/stats")
			if err == nil {
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			if time.Now().After(deadline) || ctx.Err() != nil {
				p.stop()
				return nil, 0, fmt.Errorf("%s did not come up: %v\n%s", b.name, err, tailOf(b.log))
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	c := newClient(p.gateway.url, 1)
	probe, err := newJob(setupProbe, "kernel")
	if err != nil {
		p.stop()
		return nil, 0, err
	}
	for {
		res := c.do(ctx, probe, "")
		if res.err == nil {
			break
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			p.stop()
			return nil, 0, fmt.Errorf("gateway did not answer a first job: %v\n%s", res.err, tailOf(p.gateway.log))
		}
		time.Sleep(2 * time.Millisecond)
	}
	c.close()
	return p, time.Since(start), nil
}

// stop terminates every pool process, waits for each to exit and
// removes the pool directory.
func (p *pool) stop() {
	for _, pr := range p.procs() {
		if pr != nil && pr.cmd.Process != nil {
			_ = pr.cmd.Process.Signal(syscall.SIGTERM)
		}
	}
	for _, pr := range p.procs() {
		if pr == nil || pr.cmd.Process == nil {
			continue
		}
		done := make(chan struct{})
		go func() { _ = pr.cmd.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			_ = pr.cmd.Process.Kill()
			<-done
		}
	}
	_ = os.RemoveAll(p.dir)
}

func tailOf(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is
// 100 on every Linux ABI Go supports.
const clockTick = 10 * time.Millisecond

// cpuTime is the user+sys CPU a process has used so far.
func cpuTime(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name start at field 3.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * clockTick, nil
}

// peakRSS is a process's peak resident set (VmHWM) in bytes.
func peakRSS(pid int) (int64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			return kb * 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// cpu sums the CPU time of every pool process.
func (p *pool) cpu() (time.Duration, error) {
	var sum time.Duration
	for _, pr := range p.procs() {
		t, err := cpuTime(pr.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		sum += t
	}
	return sum, nil
}

// peakRSS sums the pool processes' peak resident sets.
func (p *pool) peakRSS() (int64, error) {
	var sum int64
	for _, pr := range p.procs() {
		b, err := peakRSS(pr.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		sum += b
	}
	return sum, nil
}

// scrape reads a Prometheus text exposition into series → value, keyed
// by the series line as written ("name{label=\"v\"}").
func scrape(ctx context.Context, url string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s/metrics: %s", url, resp.Status)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// series sums every series of metric name whose labels contain all of
// the given label="value" pairs.
func series(m map[string]float64, name string, labels ...string) float64 {
	var sum float64
	for k, v := range m {
		base, lab, _ := strings.Cut(k, "{")
		if base != name {
			continue
		}
		ok := true
		for _, l := range labels {
			if !strings.Contains(lab, l) {
				ok = false
				break
			}
		}
		if ok {
			sum += v
		}
	}
	return sum
}
