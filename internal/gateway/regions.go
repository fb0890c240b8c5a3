package gateway

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"thermflow"
	"thermflow/api"
	"thermflow/internal/server"
	"thermflow/internal/trace"
)

// This file is the coordinator half of the distributed region solve: a
// v2 job submitted with kind "region" is not routed to one backend —
// the gateway partitions the program's CFG into regions, fans each
// region's fixpoint steps out across the pool (each region keyed onto
// the ring by jobID/region, so its interior state stays on one
// backend), and exchanges only the cut-point boundary thermal states
// between rounds. With region_delta 0 the schedule reproduces the
// dense solver's read pattern exactly — the merged result is
// byte-identical to a single-backend compile; with region_delta > 0
// regions run to local fixpoints per round within the documented error
// budget. Backends that lose their session (restart, eviction) answer
// Restarted and the job re-runs from round 1, a bounded number of
// times — sessions rebuild from the spec, so a restart costs time,
// never correctness.

// maxRegionAttempts bounds whole-job restarts after backend session
// loss before the gateway gives up with a 502.
const maxRegionAttempts = 3

// regionRouteKey shards one region of one job onto the ring.
func regionRouteKey(id string, region int) string {
	return fmt.Sprintf("%s/region/%d", id, region)
}

// errRegionRestart signals that a backend rebuilt its session mid-job:
// interior state from earlier rounds is gone and the attempt must
// start over.
var errRegionRestart = fmt.Errorf("gateway: backend session restarted")

// handleRegionJob coordinates one region job end to end and answers
// with a terminal JobStatus, mirroring what a backend returns for a
// completed v2 job. The gateway stays stateless across requests: every
// coordinator artifact lives in this request's frame.
func (g *Gateway) handleRegionJob(w http.ResponseWriter, r *http.Request, req api.JobRequest) {
	// A region job always solves with the region solver, so its
	// identity (and the single-region fallback's request) must name it:
	// under the submitted solver's ID it would answer a different
	// result than the plain job that ID belongs to.
	req.Options.Solver = thermflow.SolverRegion
	spec, err := server.ResolveSpec(req)
	if err != nil {
		server.WriteErr(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	id, err := spec.ID()
	if err != nil {
		server.WriteErr(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	specJSON, err := json.Marshal(spec)
	if err != nil {
		server.WriteErr(w, http.StatusUnprocessableEntity, "encoding spec: %v", err)
		return
	}
	submitted := time.Now()
	server.AnnotateJob(r, id)
	// psc is the gateway's server span for the submit request; each
	// attempt's coordination runs as one region.coordinate child of it,
	// with round and backend step spans stitched underneath.
	psc := trace.FromContext(r.Context())

	var compiled *thermflow.Compiled
	var lastErr error
	for attempt := 1; attempt <= maxRegionAttempts; attempt++ {
		coord, cerr := thermflow.NewRegionSession(spec)
		if cerr != nil {
			server.WriteErr(w, http.StatusUnprocessableEntity, "%v", cerr)
			return
		}
		if coord.NumRegions() < 2 {
			// Nothing to fan out — a single-region partition solves
			// exactly like a plain job, so route it as one (backends
			// ignore the kind field).
			body, err := json.Marshal(req)
			if err != nil {
				server.WriteErr(w, http.StatusUnprocessableEntity, "encoding request: %v", err)
				return
			}
			g.forwardRelay(w, r, id, http.MethodPost, "/v2/jobs", body,
				func(w http.ResponseWriter, resp *http.Response, served string) {
					g.relayAndReplicate(w, r, resp, served)
				})
			return
		}
		var csc trace.SpanContext
		if psc.Valid() {
			csc = psc.Child()
		}
		attemptStart := time.Now()
		compiled, lastErr = g.runRegionJob(r, coord, id, specJSON, csc)
		if csc.Valid() {
			outcome := "done"
			if lastErr != nil {
				outcome = "restart"
				if lastErr != errRegionRestart {
					outcome = "error"
				}
			}
			g.trace.Record(id, trace.Span{
				TraceID: csc.TraceID, SpanID: csc.SpanID, Parent: psc.SpanID,
				Name: "region.coordinate", Start: attemptStart, Duration: time.Since(attemptStart),
				Attrs: map[string]string{
					"attempt": strconv.Itoa(attempt),
					"regions": strconv.Itoa(coord.NumRegions()),
					"outcome": outcome,
				},
			})
		}
		if lastErr == nil {
			break
		}
		if r.Context().Err() != nil {
			return // client gone
		}
		if lastErr != errRegionRestart {
			server.WriteErr(w, http.StatusBadGateway, "gateway: region solve: %v", lastErr)
			return
		}
		g.logger.Printf("gateway: region job %s attempt %d restarted by a backend", id, attempt)
	}
	if compiled == nil {
		server.WriteErr(w, http.StatusBadGateway,
			"gateway: region job %s failed after %d attempts: %v", id, maxRegionAttempts, lastErr)
		return
	}
	finished := time.Now()
	server.WriteJSON(w, http.StatusOK, api.JobStatus{
		ID:          id,
		State:       "done",
		Result:      api.ResponseFor(compiled, false),
		SubmittedMS: submitted.UnixMilli(),
		StartedMS:   submitted.UnixMilli(),
		FinishedMS:  finished.UnixMilli(),
	})
}

// regionStep is one region's outcome within a round.
type regionStep struct {
	region int
	served string // backend that answered (for span attribution)
	resp   api.RegionSolveResponse
	err    error
}

// runRegionJob drives one attempt: rounds of region steps to global
// convergence, then fragment collection and finalization. csc, when
// valid, is the attempt's region.coordinate span: every round records a
// region.round child, and each backend's returned step span is
// re-parented under its round and stamped with the serving backend —
// the stitch that makes one job's timeline span the whole pool.
func (g *Gateway) runRegionJob(r *http.Request, coord *thermflow.RegionSession, id string, specJSON []byte, csc trace.SpanContext) (*thermflow.Compiled, error) {
	var (
		history     []float64
		finalDelta  float64
		converged   bool
		iterations  int
		blockSweeps int
	)
	slack := coord.Slack()
	tol := coord.Delta()
	if slack > 0 {
		tol += slack
	}
	waves := coord.Waves()
	if slack > 0 {
		// Jacobi rounds: every region steps against the boundary
		// states frozen at round start, so waves collapse into one.
		all := make([]int, 0, coord.NumRegions())
		for _, wave := range waves {
			all = append(all, wave...)
		}
		waves = [][]int{all}
	}

	for round := 1; round <= coord.MaxIter(); round++ {
		roundDelta := 0.0
		rsc := trace.SpanContext{}
		rr := r
		if csc.Valid() {
			// The round span's identity rides the outbound trace headers,
			// so each backend's region.solve arrives parented under it.
			rsc = csc.Child()
			rr = r.WithContext(trace.NewContext(r.Context(), rsc))
		}
		roundStart := time.Now()
		for _, wave := range waves {
			steps := g.stepWave(rr, coord, id, specJSON, round, wave)
			g.stitchSteps(id, rsc, steps)
			for _, st := range steps {
				if st.err != nil {
					return nil, st.err
				}
				if st.resp.Restarted && round > 1 {
					return nil, errRegionRestart
				}
				blockSweeps += st.resp.Sweeps * coord.RegionSize(st.region)
				if slack > 0 {
					// Convergence is boundary movement, measured against
					// the coordinator's pre-round copies.
					for _, bs := range st.resp.Boundary {
						if d := maxAbsDiff(coord.State(bs.Block), bs.State); d > roundDelta {
							roundDelta = d
						}
					}
				} else if st.resp.Delta > roundDelta {
					roundDelta = st.resp.Delta
				}
			}
			// Install the wave's exports only after every response is
			// in: exact mode needs downstream waves to read them, slack
			// mode needs them frozen until the round ends.
			for _, st := range steps {
				for _, bs := range st.resp.Boundary {
					if err := coord.SetState(bs.Block, bs.State); err != nil {
						return nil, err
					}
				}
			}
		}
		iterations = round
		history = append(history, roundDelta)
		finalDelta = roundDelta
		if rsc.Valid() {
			g.trace.Record(id, trace.Span{
				TraceID: rsc.TraceID, SpanID: rsc.SpanID, Parent: csc.SpanID,
				Name: "region.round", Start: roundStart, Duration: time.Since(roundStart),
				Attrs: map[string]string{
					"round": strconv.Itoa(round),
					"delta": strconv.FormatFloat(roundDelta, 'g', -1, 64),
				},
			})
		}
		if roundDelta <= tol {
			converged = true
			break
		}
	}

	if err := g.collectRegions(r, coord, id, specJSON); err != nil {
		return nil, err
	}
	return coord.Finalize(iterations, history, finalDelta, converged, blockSweeps), nil
}

// stepWave advances every region of one wave concurrently.
func (g *Gateway) stepWave(r *http.Request, coord *thermflow.RegionSession, id string, specJSON []byte, round int, wave []int) []regionStep {
	steps := make([]regionStep, len(wave))
	var wg sync.WaitGroup
	for i, region := range wave {
		steps[i].region = region
		req := api.RegionSolveRequest{
			JobID: id, Region: region, Round: round, Spec: specJSON,
		}
		for _, b := range coord.InputBlocks(region) {
			req.Boundary = append(req.Boundary, api.RegionBlockState{Block: b, State: coord.State(b)})
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			steps[i].served, steps[i].err = g.regionPost(r, regionRouteKey(id, region), "/v2/regions/solve", req, &steps[i].resp)
		}()
	}
	wg.Wait()
	return steps
}

// stitchSteps folds backend-returned step spans into the job's gateway
// timeline: each span is re-parented under the round that requested it
// (its original parent is the backend's private server span) and
// stamped with the backend that served it, keeping its own service
// name and timings.
func (g *Gateway) stitchSteps(id string, rsc trace.SpanContext, steps []regionStep) {
	if !rsc.Valid() {
		return
	}
	for _, st := range steps {
		if st.resp.Span == nil {
			continue
		}
		sp := server.SpanFromWire(*st.resp.Span)
		sp.Parent = rsc.SpanID
		if st.served != "" {
			if sp.Attrs == nil {
				sp.Attrs = make(map[string]string)
			}
			sp.Attrs["backend"] = st.served
		}
		g.trace.Record(id, sp)
	}
}

// collectRegions fetches and merges every region's result fragment.
func (g *Gateway) collectRegions(r *http.Request, coord *thermflow.RegionSession, id string, specJSON []byte) error {
	nr := coord.NumRegions()
	frags := make([]api.RegionCollectResponse, nr)
	errs := make([]error, nr)
	var wg sync.WaitGroup
	for region := 0; region < nr; region++ {
		req := api.RegionCollectRequest{JobID: id, Region: region, Spec: specJSON}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[region] = g.regionPost(r, regionRouteKey(id, region), "/v2/regions/collect", req, &frags[region])
		}()
	}
	wg.Wait()
	for region := 0; region < nr; region++ {
		if errs[region] != nil {
			return errs[region]
		}
		if frags[region].Restarted {
			return errRegionRestart
		}
		if err := coord.AbsorbFragment(region, frags[region].BlockIn, frags[region].Instr); err != nil {
			return err
		}
	}
	return nil
}

// regionPost issues one region-protocol request against the key's
// owner, failing over to ring successors on transport errors only — an
// HTTP error status is the backend's answer and surfaces as an error
// here. A successor answering a mid-job step has no session and
// reports Restarted, which the caller turns into a job restart. The
// returned name is the backend that answered ("" when none did).
func (g *Gateway) regionPost(r *http.Request, key, path string, reqBody, out any) (string, error) {
	body, err := json.Marshal(reqBody)
	if err != nil {
		return "", err
	}
	cands := g.route(key)
	if len(cands) == 0 {
		return "", fmt.Errorf("gateway: no healthy backend")
	}
	var lastErr error
	for _, name := range cands {
		resp, err := g.send(r, name, http.MethodPost, path, body)
		if err != nil {
			if r.Context().Err() != nil {
				return "", r.Context().Err()
			}
			g.observeFailure(name, err)
			g.metrics.failovers.Inc()
			lastErr = fmt.Errorf("backend %s: %w", name, err)
			continue
		}
		func() {
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
				err = fmt.Errorf("backend %s: %s: %s", name, resp.Status, msg)
				return
			}
			err = json.NewDecoder(resp.Body).Decode(out)
		}()
		return name, err
	}
	return "", fmt.Errorf("gateway: no backend reachable: %w", lastErr)
}

// maxAbsDiff returns the largest absolute elementwise difference.
func maxAbsDiff(a, b []float64) float64 {
	max := 0.0
	for i := range a {
		if i >= len(b) {
			break
		}
		d := a[i] - b[i]
		if d < 0 {
			d = -d
		}
		if d > max {
			max = d
		}
	}
	return max
}
