package main

import (
	"bytes"
	"slices"
	"testing"

	"thermflow"
)

func firstJobs(t *testing.T, g generator, n int) []job {
	t.Helper()
	out := make([]job, n)
	for i := range out {
		j, err := g.next()
		if err != nil {
			t.Fatal(err)
		}
		out[i] = j
	}
	return out
}

func TestSameSeedSameRequests(t *testing.T) {
	for name, w := range workloads {
		t.Run(name, func(t *testing.T) {
			n := 40
			if name != "kernels-open" {
				n = 6
			}
			a := firstJobs(t, w.gen(7), n)
			b := firstJobs(t, w.gen(7), n)
			c := firstJobs(t, w.gen(8), n)
			differ := false
			for i := range a {
				if !bytes.Equal(a[i].body, b[i].body) || a[i].id != b[i].id {
					t.Fatalf("request %d differs between two streams with seed 7", i)
				}
				if !bytes.Equal(a[i].body, c[i].body) {
					differ = true
				}
			}
			if !differ {
				t.Error("seeds 7 and 8 gave the same requests")
			}
		})
	}
	if !slices.Equal(arrivals(3, 100, 2), arrivals(3, 100, 2)) {
		t.Error("the same seed gave two arrival schedules")
	}
}

func TestJobIDIsTheServedIdentity(t *testing.T) {
	j, err := newKernelGen(1).next()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := thermflow.JobSpecFromKernel(j.req.Kernel, j.req.Options)
	if err != nil {
		t.Fatal(err)
	}
	if id, _ := spec.ID(); id != j.id {
		t.Fatalf("job ID %s, spec ID %s", j.id, id)
	}
}

func TestKernelStreamRepeatsFourInFive(t *testing.T) {
	g := newKernelGen(5)
	seen := make(map[string]bool)
	repeats, n := 0, 3000
	for _, j := range firstJobs(t, g, n) {
		if seen[j.id] {
			repeats++
		}
		seen[j.id] = true
	}
	if share := float64(repeats) / float64(n); share < 0.77 || share > 0.83 {
		t.Fatalf("repeat share %.3f, want about %.1f", share, kernelRepeatShare)
	}
}

func TestProgramStreamIsUniqueAndMixed(t *testing.T) {
	jobs := firstJobs(t, newProgramGen(3), 60)
	ids := make(map[string]bool)
	families := make(map[string]int)
	for _, j := range jobs {
		if ids[j.id] {
			t.Fatalf("job %s sent twice", j.id)
		}
		ids[j.id] = true
		families[j.family]++
	}
	for _, f := range []string{"mega", "nest", "pressure"} {
		if families[f] < 10 {
			t.Errorf("family %s: %d of 60 jobs", f, families[f])
		}
	}
}

// High-pressure programs must spill (2–3 allocation rounds) without
// exceeding the spill budget, or the workload would fail jobs.
func TestPressureProgramsSpill(t *testing.T) {
	g := newProgramGen(11)
	checked := 0
	for checked < 8 {
		j, err := g.next()
		if err != nil {
			t.Fatal(err)
		}
		if j.family != "pressure" {
			continue
		}
		checked++
		p, err := thermflow.Parse(j.spec.Source)
		if err != nil {
			t.Fatal(err)
		}
		c, err := p.Compile(j.spec.Opts)
		if err != nil {
			t.Fatalf("pressure job %s: %v", j.id[:12], err)
		}
		if c.Alloc.Rounds < 2 || c.Alloc.Rounds > 3 {
			t.Errorf("pressure job %s: %d allocation rounds, want 2–3", j.id[:12], c.Alloc.Rounds)
		}
	}
}
