package thermflow

import (
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"thermflow/internal/floorplan"
	"thermflow/internal/power"
	"thermflow/internal/tdfa"
)

func TestOptionsJSONRoundTrip(t *testing.T) {
	cases := []Options{
		{},
		{Policy: Chessboard, Solver: SolverRegion},
		{
			NumRegs: 16, Policy: Coldest, Seed: 42,
			HeatSeed: []float64{1, 2, 3},
			GridW:    4, GridH: 4, Layout: floorplan.Checker,
			Tech:   power.Default65nm(),
			Solver: SolverRegion, Delta: 0.01, MaxIter: 128,
			Kappa: 1e4, JoinOp: tdfa.JoinMax,
			WithLeakage: true, NoWarmStart: true,
			DefaultTrip: 5, SkipAnalysis: true,
		},
	}
	for i, opts := range cases {
		buf, err := json.Marshal(opts)
		if err != nil {
			t.Fatalf("case %d: marshal: %v", i, err)
		}
		var back Options
		if err := json.Unmarshal(buf, &back); err != nil {
			t.Fatalf("case %d: unmarshal %s: %v", i, buf, err)
		}
		if !reflect.DeepEqual(opts, back) {
			t.Errorf("case %d: round trip diverged:\n in  %#v\n out %#v\n via %s", i, opts, back, buf)
		}
	}
}

func TestOptionsJSONZeroIsEmpty(t *testing.T) {
	buf, err := json.Marshal(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if string(buf) != "{}" {
		t.Errorf("zero Options marshals to %s, want {}", buf)
	}
}

func TestOptionsJSONNamesEnums(t *testing.T) {
	buf, err := json.Marshal(Options{Policy: SpreadMax, Solver: SolverRegion, JoinOp: tdfa.JoinMax, Layout: floorplan.Banked})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"policy":"spread-max"`, `"solver":"region"`, `"join":"max"`, `"layout":"banked"`} {
		if !strings.Contains(string(buf), want) {
			t.Errorf("marshal = %s, missing %s", buf, want)
		}
	}
}

func TestOptionsJSONUnknownNames(t *testing.T) {
	cases := []struct{ body, kind string }{
		{`{"policy":"hottest"}`, "policy"},
		{`{"solver":"magic"}`, "solver"},
		{`{"solver":"sparse"}`, "solver"},
		{`{"layout":"spiral"}`, "layout"},
		{`{"join":"min"}`, "join"},
	}
	for _, tc := range cases {
		var o Options
		err := json.Unmarshal([]byte(tc.body), &o)
		var unknown *UnknownNameError
		if !errors.As(err, &unknown) {
			t.Errorf("%s: err = %v, want UnknownNameError", tc.body, err)
			continue
		}
		if unknown.Kind != tc.kind {
			t.Errorf("%s: kind = %q, want %q", tc.body, unknown.Kind, tc.kind)
		}
	}
}

func TestSpillBudgetBoundsTinyRegisterFiles(t *testing.T) {
	// ROADMAP "allocator blowup": NumRegs 1 cannot satisfy a binary
	// operation (two simultaneously live registers), so every spill
	// round grows the program without reducing pressure. The work
	// budget must turn that into a typed error in bounded time.
	prog, err := Kernel("matmul")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = prog.Compile(Options{NumRegs: 1})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("NumRegs 1 compiled successfully (!?)")
	}
	if !errors.Is(err, ErrSpillBudget) {
		t.Fatalf("err = %v, want ErrSpillBudget", err)
	}
	var be *AllocBudgetError
	if !errors.As(err, &be) {
		t.Fatalf("err = %v, want *AllocBudgetError", err)
	}
	if be.Instrs <= be.Budget {
		t.Errorf("budget error with Instrs %d <= Budget %d", be.Instrs, be.Budget)
	}
	if elapsed > 30*time.Second {
		t.Errorf("budget abort took %v, want bounded time", elapsed)
	}

	// A feasible tiny file still allocates (the budget must not bite
	// legitimate heavy spilling).
	if _, err := prog.Compile(Options{NumRegs: 6}); err != nil {
		t.Errorf("NumRegs 6: %v", err)
	}
}
