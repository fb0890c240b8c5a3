package main

import "testing"

func TestProbeSampleTakesEveryFamily(t *testing.T) {
	var samples []sample
	for i, f := range []string{"mega", "mega", "mega", "mega", "mega", "mega", "mega", "nest", "pressure", "pressure"} {
		samples = append(samples, sample{j: job{id: string(rune('a' + i)), family: f}})
	}
	samples = append(samples, samples[0]) // a repeated spec is probed once
	got := probeSample(samples, 1)
	fams := make(map[string]int)
	ids := make(map[string]bool)
	for _, j := range got {
		fams[j.family]++
		if ids[j.id] {
			t.Fatalf("spec %s probed twice", j.id)
		}
		ids[j.id] = true
	}
	if len(got) != probeSpecs || fams["nest"] != 1 || fams["pressure"] != 2 || fams["mega"] != probeSpecs-3 {
		t.Fatalf("probe sample %v of %d specs", fams, len(got))
	}
}
