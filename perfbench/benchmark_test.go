package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
)

// perfbench and BENCHMARK.json must name the same workloads.
func TestBenchmarkFileNamesTheWorkloads(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string } `json:"workloads"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is unknown to perfbench", w.Name)
		}
	}
	for name := range workloads {
		if !slices.Contains(names, name) {
			t.Errorf("perfbench workload %q is missing from BENCHMARK.json", name)
		}
	}
}
