package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"math/rand"
	"slices"

	"thermflow"
	"thermflow/api"
	"thermflow/internal/sim"
	"thermflow/internal/workload"
)

// verifySample is how many distinct specs per run are recompiled in
// process and checked against the served result.
const verifySample = 6

// kernelScale is the problem size kernels are executed at when the
// allocated program is checked against the original.
const kernelScale = 16

// wireResult renders a result for comparison, ignoring the cache flag.
func wireResult(r *api.CompileResponse) ([]byte, error) {
	c := *r
	c.Cached = false
	return json.Marshal(c)
}

// reference compiles a spec in process, the way a backend does, and
// checks that the allocated program computes what the original does.
func reference(j job) (*thermflow.Compiled, []byte, error) {
	p, err := thermflow.Parse(j.spec.Source)
	if err != nil {
		return nil, nil, err
	}
	c, err := p.Compile(j.spec.Opts)
	if err != nil {
		return nil, nil, err
	}
	var args []int64
	var mem, mem2 sim.Memory
	if j.kernel != "" {
		k, err := workload.ByName(j.kernel)
		if err != nil {
			return nil, nil, err
		}
		args, mem = k.Setup(kernelScale)
		_, mem2 = k.Setup(kernelScale)
	}
	want, err := sim.Run(p.Fn, sim.Options{Args: args, Mem: mem})
	if err != nil {
		return nil, nil, fmt.Errorf("running original: %w", err)
	}
	got, err := sim.Run(c.Alloc.Fn, sim.Options{Args: args, Mem: mem2})
	if err != nil {
		return nil, nil, fmt.Errorf("running allocated program: %w", err)
	}
	if got.Ret != want.Ret {
		return nil, nil, fmt.Errorf("allocated program returns %d, original %d", got.Ret, want.Ret)
	}
	wire, err := wireResult(api.ResponseFor(c, false))
	return c, wire, err
}

// verify checks every answered sample: a terminal done status under the
// expected job ID, the same result for every answer of one ID, and, for
// a seeded sample of distinct specs (every spec when all is set), the
// served result equal to an in-process compile of the same spec. It
// marks the samples whose answers are wrong and returns how many.
func verify(samples []sample, seed int64, all bool) (wrong int, problems []string) {
	byID := make(map[string][]int)
	for i := range samples {
		if samples[i].out.err == nil {
			byID[samples[i].j.id] = append(byID[samples[i].j.id], i)
		}
	}
	bad := make(map[string]string)
	for id, idx := range byID {
		var first []byte
		for _, i := range idx {
			st := samples[i].out.status
			if st.ID != id || st.Result == nil {
				bad[id] = fmt.Sprintf("answered ID %q (want %s), result present %t", st.ID, id, st.Result != nil)
				break
			}
			w, err := wireResult(st.Result)
			if err != nil {
				bad[id] = err.Error()
				break
			}
			if first == nil {
				first = w
			} else if !bytes.Equal(first, w) {
				bad[id] = "two answers for one job ID differ"
				break
			}
		}
	}
	ids := slices.Sorted(maps.Keys(byID))
	if !all {
		rng := rand.New(rand.NewSource(seed ^ 0x7e57))
		rng.Shuffle(len(ids), func(a, b int) { ids[a], ids[b] = ids[b], ids[a] })
		ids = ids[:min(len(ids), verifySample)]
	}
	for _, id := range ids {
		if _, ok := bad[id]; ok {
			continue
		}
		s := samples[byID[id][0]]
		_, want, err := reference(s.j)
		if err != nil {
			bad[id] = "in-process reference: " + err.Error()
			continue
		}
		got, _ := wireResult(s.out.status.Result)
		if !bytes.Equal(got, want) {
			bad[id] = fmt.Sprintf("served result differs from in-process compile:\n served %s\n   want %s", got, want)
		}
	}
	for id, why := range bad {
		wrong += len(byID[id])
		problems = append(problems, fmt.Sprintf("job %s (%s): %s", id[:12], samples[byID[id][0]].j.family, why))
	}
	slices.Sort(problems)
	return wrong, problems
}
