package main

import (
	"testing"

	"thermflow/api"
)

func TestVerifyFlagsWrongAnswers(t *testing.T) {
	j, err := newKernelGen(2).next()
	if err != nil {
		t.Fatal(err)
	}
	c, _, err := reference(j)
	if err != nil {
		t.Fatal(err)
	}
	answer := func(mutate func(*api.JobStatus)) []sample {
		st := api.JobStatus{ID: j.id, State: "done", Cached: true, Result: api.ResponseFor(c, true)}
		mutate(&st)
		return []sample{{j: j, out: outcome{status: st}}}
	}
	if wrong, problems := verify(answer(func(*api.JobStatus) {}), 1, true); wrong != 0 {
		t.Fatalf("a correct cached answer was flagged: %v", problems)
	}
	for name, mutate := range map[string]func(*api.JobStatus){
		"peak temperature": func(st *api.JobStatus) { st.Result.PeakTemp += 1e-9 },
		"job ID":           func(st *api.JobStatus) { st.ID = "0" + st.ID[1:] },
		"missing result":   func(st *api.JobStatus) { st.Result = nil },
		"spill count":      func(st *api.JobStatus) { st.Result.Alloc.SpillLoads++ },
	} {
		if wrong, _ := verify(answer(mutate), 1, true); wrong != 1 {
			t.Errorf("a wrong %s was not flagged", name)
		}
	}
}
