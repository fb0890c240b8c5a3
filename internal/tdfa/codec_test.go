package tdfa

import (
	"reflect"
	"testing"

	"thermflow/internal/regalloc"
	"thermflow/internal/workload"
)

// encodeDecode round-trips res against fn and fails the test on any
// codec error.
func encodeDecode(t *testing.T, res *Result) *Result {
	t.Helper()
	blob, err := EncodeResult(nil, res)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := DecodeResult(blob, res.fn)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return got
}

// requireEqualResults compares every exported field, normalizing the
// unexported analysis context (cfg) which the codec intentionally does
// not carry.
func requireEqualResults(t *testing.T, want, got *Result) {
	t.Helper()
	w := *want
	w.cfg = Config{}
	g := *got
	g.cfg = Config{}
	if !reflect.DeepEqual(&w, &g) {
		t.Fatalf("round trip diverged:\nwant %+v\ngot  %+v", &w, &g)
	}
}

// The codec must round-trip the full Result — every thermal.State
// slice included — across random programs, policies and option
// variations.
func TestResultCodecRoundTripRandomPrograms(t *testing.T) {
	policies := []regalloc.Policy{regalloc.FirstFree, regalloc.Chessboard, regalloc.Coldest}
	for seed := int64(1); seed <= 25; seed++ {
		fn := workload.Generate(workload.GenConfig{
			Seed:         seed,
			Segments:     2 + int(seed%3),
			Irregularity: float64(seed%4) / 4,
		})
		a, err := regalloc.Allocate(fn, regalloc.Config{
			NumRegs: 16, Policy: policies[seed%int64(len(policies))],
		})
		if err != nil {
			t.Fatalf("seed %d: allocate: %v", seed, err)
		}
		cfg := Config{Alloc: a}
		if seed%3 == 0 {
			cfg.Solver = SolverRegion
		}
		if seed%4 == 0 {
			cfg.WithLeakage = true
		}
		if seed%5 == 0 {
			cfg.JoinOp = JoinMax
		}
		res, err := Analyze(a.Fn, cfg)
		if err != nil {
			t.Fatalf("seed %d: analyze: %v", seed, err)
		}
		requireEqualResults(t, res, encodeDecode(t, res))
	}
}

// Early-mode results (no allocation; Critical entries carry Reg -1)
// must round-trip too.
func TestResultCodecRoundTripEarlyMode(t *testing.T) {
	fn := workload.Generate(workload.GenConfig{Seed: 7, Segments: 3})
	res, err := Analyze(fn, Config{PlacementPrior: PriorChessboard})
	if err != nil {
		t.Fatal(err)
	}
	requireEqualResults(t, res, encodeDecode(t, res))
}

// Every truncation of a valid encoding must decode to an error —
// never a panic, never a silent partial Result.
func TestResultCodecRejectsEveryTruncation(t *testing.T) {
	fn := workload.Generate(workload.GenConfig{Seed: 3, Segments: 3})
	a, err := regalloc.Allocate(fn, regalloc.Config{NumRegs: 16})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Analyze(a.Fn, Config{Alloc: a})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := EncodeResult(nil, res)
	if err != nil {
		t.Fatal(err)
	}
	step := 1
	if len(blob) > 2048 {
		step = len(blob) / 2048 // keep the sweep fast on big blobs
	}
	for n := 0; n < len(blob); n += step {
		if _, err := DecodeResult(blob[:n], fn); err == nil {
			t.Fatalf("truncation at %d/%d bytes decoded without error", n, len(blob))
		}
	}
	// Flipping the version must invalidate cleanly.
	bad := append([]byte(nil), blob...)
	bad[0] ^= 0xff
	if _, err := DecodeResult(bad, fn); err == nil {
		t.Fatal("wrong codec version decoded without error")
	}
	// Trailing garbage is rejected (a concatenation bug, not a value).
	if _, err := DecodeResult(append(append([]byte(nil), blob...), 0xAA), fn); err == nil {
		t.Fatal("trailing bytes decoded without error")
	}
}

// Decoding against the wrong function must fail structurally, not
// fabricate states for instructions that do not exist.
func TestResultCodecRejectsWrongFunction(t *testing.T) {
	fnA := workload.Generate(workload.GenConfig{Seed: 11, Segments: 4})
	fnB := workload.Generate(workload.GenConfig{Seed: 12, Segments: 1})
	a, err := regalloc.Allocate(fnA, regalloc.Config{NumRegs: 16})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Analyze(a.Fn, Config{Alloc: a})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := EncodeResult(nil, res)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeResult(blob, fnB); err == nil {
		t.Fatal("result decoded against a structurally different function")
	}
}
