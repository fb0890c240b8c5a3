package thermflow

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"thermflow/internal/power"
)

// specVariants spans the option space: every enum off its default,
// nested tech parameters, slices, and scheduling hints.
func specVariants() []Options {
	return []Options{
		{},
		{Policy: Chessboard, NumRegs: 16},
		{Policy: Random, Seed: 42, Solver: SolverRegion},
		{Policy: Coldest, HeatSeed: []float64{300, 310.5, 295.25}},
		{GridW: 4, GridH: 4, NumRegs: 16, MaxIter: 128, Delta: 0.01},
		{Tech: power.Default65nm(), Kappa: 12.5, WithLeakage: true},
		{NoWarmStart: true, DefaultTrip: 3, SkipAnalysis: true},
	}
}

// The acceptance property: encode → decode → encode is byte-identical,
// and the decoded spec carries the same ID.
func TestJobSpecEncodeDecodeEncodeIsByteIdentical(t *testing.T) {
	for _, name := range Kernels() {
		for i, opts := range specVariants() {
			spec, err := JobSpecFromKernel(name, opts)
			if err != nil {
				t.Fatalf("%s/%d: %v", name, i, err)
			}
			spec.Deadline = time.Duration(i) * time.Second
			spec.Priority = i - 3

			enc1, err := json.Marshal(spec)
			if err != nil {
				t.Fatalf("%s/%d: marshal: %v", name, i, err)
			}
			var decoded JobSpec
			if err := json.Unmarshal(enc1, &decoded); err != nil {
				t.Fatalf("%s/%d: unmarshal: %v", name, i, err)
			}
			enc2, err := json.Marshal(decoded)
			if err != nil {
				t.Fatalf("%s/%d: re-marshal: %v", name, i, err)
			}
			if !bytes.Equal(enc1, enc2) {
				t.Errorf("%s/%d: encode/decode/encode differs:\n%s\n%s", name, i, enc1, enc2)
			}
			id1, err := spec.ID()
			if err != nil {
				t.Fatal(err)
			}
			id2, err := decoded.ID()
			if err != nil {
				t.Fatal(err)
			}
			if id1 != id2 {
				t.Errorf("%s/%d: ID changed across the codec: %s vs %s", name, i, id1, id2)
			}
			if decoded.Source != spec.Source || decoded.Deadline != spec.Deadline ||
				decoded.Priority != spec.Priority {
				t.Errorf("%s/%d: decoded spec diverged", name, i)
			}
		}
	}
}

// A kernel reference and the kernel's canonicalized source are the
// same job.
func TestJobSpecKernelRefEqualsCanonicalSource(t *testing.T) {
	opts := Options{Policy: Chessboard, NumRegs: 32}
	for _, name := range Kernels() {
		byRef, err := JobSpecFromKernel(name, opts)
		if err != nil {
			t.Fatal(err)
		}
		p, err := Kernel(name)
		if err != nil {
			t.Fatal(err)
		}
		bySrc, err := JobSpecFromSource(p.Fn.String(), "", opts)
		if err != nil {
			t.Fatalf("%s: source round trip: %v", name, err)
		}
		refID, _ := byRef.ID()
		srcID, _ := bySrc.ID()
		if refID == "" || refID != srcID {
			t.Errorf("%s: kernel ref ID %s != source ID %s", name, refID, srcID)
		}
	}
}

// Deadline and priority schedule a job; they must not rename it.
func TestJobSpecIDIgnoresScheduling(t *testing.T) {
	base, err := JobSpecFromKernel("matmul", Options{})
	if err != nil {
		t.Fatal(err)
	}
	urgent := base
	urgent.Deadline = 5 * time.Second
	urgent.Priority = 100
	baseID, _ := base.ID()
	urgentID, _ := urgent.ID()
	if baseID != urgentID {
		t.Errorf("scheduling hints changed the job ID: %s vs %s", baseID, urgentID)
	}
	// The full wire form does carry them.
	b1, _ := json.Marshal(base)
	b2, _ := json.Marshal(urgent)
	if bytes.Equal(b1, b2) {
		t.Error("wire form dropped the scheduling hints")
	}
}

// Reordered JSON option fields are the same request: decoding is
// field-order-insensitive and re-encoding is canonical.
func TestJobSpecIDStableUnderFieldReorder(t *testing.T) {
	p, err := Kernel("dot")
	if err != nil {
		t.Fatal(err)
	}
	src, _ := json.Marshal(p.Fn.String())
	a := []byte(`{"v":2,"source":` + string(src) + `,"options":{"num_regs":16,"policy":"chessboard","solver":"region"}}`)
	b := []byte(`{"options":{"solver":"region","num_regs":16,"policy":"chessboard"},"source":` + string(src) + `,"v":2}`)
	var sa, sb JobSpec
	if err := json.Unmarshal(a, &sa); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &sb); err != nil {
		t.Fatal(err)
	}
	ida, err := sa.ID()
	if err != nil {
		t.Fatal(err)
	}
	idb, err := sb.ID()
	if err != nil {
		t.Fatal(err)
	}
	if ida != idb {
		t.Errorf("field order changed the job ID: %s vs %s", ida, idb)
	}
	ea, _ := json.Marshal(sa)
	eb, _ := json.Marshal(sb)
	if !bytes.Equal(ea, eb) {
		t.Errorf("re-encodings differ:\n%s\n%s", ea, eb)
	}
}

// The job ID is the batch cache key: one identity from client to disk.
func TestJobSpecIDEqualsBatchCacheKey(t *testing.T) {
	for i, opts := range specVariants() {
		spec, err := JobSpecFromKernel("fir", opts)
		if err != nil {
			t.Fatal(err)
		}
		id, err := spec.ID()
		if err != nil {
			t.Fatal(err)
		}
		job, err := spec.CompileJob()
		if err != nil {
			t.Fatal(err)
		}
		if key := job.cacheKey(); key != id {
			t.Errorf("variant %d: cache key %s != job ID %s", i, key, id)
		}
	}
}

// Hooked programs must not collapse onto the pure-content identity:
// kernels (which carry hooks plus a stable Key) get their own cache
// key, distinct from the hook-free spec of the same IR.
func TestHookedProgramKeyDistinctFromSpecID(t *testing.T) {
	p, err := Kernel("dot")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := NewJobSpec(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	id, _ := spec.ID()
	hookedKey := CompileJob{Program: p, Opts: Options{}}.cacheKey()
	if hookedKey == "" || hookedKey == id {
		t.Errorf("hooked kernel shares the hook-free identity %s", id)
	}
	// Two processes resolving the same kernel agree (stable Key)...
	p2, _ := Kernel("dot")
	if k2 := (CompileJob{Program: p2, Opts: Options{}}).cacheKey(); k2 != hookedKey {
		t.Errorf("same kernel, different keys: %s vs %s", k2, hookedKey)
	}
	// ...while an anonymous hooked program stays process-local.
	anon := &Program{Fn: p.Fn, Setup: p.Setup}
	if k := (CompileJob{Program: anon, Opts: Options{}}).cacheKey(); k == hookedKey || k == id {
		t.Error("anonymous hooked program shares a stable identity")
	}
}

// Future spec versions must be rejected, not misread.
func TestJobSpecRejectsUnknownVersion(t *testing.T) {
	var s JobSpec
	if err := json.Unmarshal([]byte(`{"v":3,"source":"","options":{}}`), &s); err == nil {
		t.Error("version 3 spec decoded without error")
	}
}
