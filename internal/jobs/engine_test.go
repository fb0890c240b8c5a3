package jobs

import (
	"context"
	"testing"
	"time"

	"thermflow"
)

// A finished job keeps only its rendered answer. Twenty distinct 5-arm
// mega-modules — each a few hundred KiB as a compilation — must leave
// the memory tier holding a few KiB per entry, and no terminal job
// record may keep its parsed program.
func TestFinishedJobsRetainOnlyTheirAnswers(t *testing.T) {
	eng, err := OpenEngine(EngineConfig{Workers: 2, CacheDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	r := New(eng, Config{})
	defer r.Close()

	const n = 20
	ids := make([]string, n)
	for i := range ids {
		src := thermflow.GenerateMega(thermflow.MegaOptions{Seed: int64(i + 1), Arms: 5, Depth: 2}).Fn.String()
		spec, err := thermflow.JobSpecFromSource(src, "", thermflow.Options{})
		if err != nil {
			t.Fatal(err)
		}
		snap, _, err := r.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = snap.ID
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	for _, id := range ids {
		snap, err := r.Wait(ctx, id)
		if err != nil || snap.State != StateDone || snap.Result == nil {
			t.Fatalf("job %s: state %s err %v", id[:12], snap.State, err)
		}
	}

	st := eng.Stats()
	if st.Mem.Entries != n || st.Disk.Entries != n {
		t.Fatalf("memory/disk entries %d/%d, want %d each", st.Mem.Entries, st.Disk.Entries, n)
	}
	if per := st.Mem.Bytes / int64(st.Mem.Entries); per > 16<<10 {
		t.Errorf("memory tier charges %d bytes per answer, want at most 16 KiB", per)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, j := range r.jobs {
		if j.cjob.Program != nil {
			t.Errorf("terminal job %s still holds its compile job", j.id[:12])
		}
	}
}
