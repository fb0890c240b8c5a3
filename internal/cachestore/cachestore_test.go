package cachestore

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// stringCodec stores string values as their bytes; anything else is
// unencodable (mirrors how the thermflow codec treats cached errors).
type stringCodec struct{}

func (stringCodec) Encode(v any) ([]byte, error) {
	s, ok := v.(string)
	if !ok {
		return nil, ErrUnencodable
	}
	return []byte(s), nil
}

func (stringCodec) Decode(data []byte) (any, error) { return string(data), nil }

// sizeOfTest charges strings by length and anything else a token
// amount — SizeOf must handle every value the runner may store.
func sizeOfTest(v any) int64 {
	if s, ok := v.(string); ok {
		return int64(len(s))
	}
	return 16
}

func memStore(t *testing.T, capBytes int64) *Store {
	t.Helper()
	s, err := Open(Config{
		MaxMemBytes: capBytes,
		SizeOf:      sizeOfTest,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func diskStore(t *testing.T, dir string, memCap, diskCap int64) *Store {
	t.Helper()
	s, err := Open(Config{
		MaxMemBytes:  memCap,
		SizeOf:       sizeOfTest,
		Dir:          dir,
		MaxDiskBytes: diskCap,
		Codec:        stringCodec{},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// The memory tier must never exceed its byte cap, no matter the
// insertion pattern, and must evict least-recently-used first.
func TestMemoryTierNeverExceedsCap(t *testing.T) {
	const cap = 100
	s := memStore(t, cap)
	check := func() {
		t.Helper()
		if b := s.Stats().Mem.Bytes; b > cap {
			t.Fatalf("memory tier at %d bytes, cap %d", b, cap)
		}
	}
	for i := 0; i < 50; i++ {
		s.Put(fmt.Sprintf("k%d", i), strings.Repeat("x", 30))
		check()
	}
	st := s.Stats().Mem
	if st.Entries != 3 { // 3×30 fits in 100, 4×30 does not
		t.Errorf("entries = %d, want 3", st.Entries)
	}
	if st.Evictions != 47 {
		t.Errorf("evictions = %d, want 47", st.Evictions)
	}
	// LRU: the survivors are the three most recent.
	for i := 47; i < 50; i++ {
		if _, ok := s.Get(fmt.Sprintf("k%d", i)); !ok {
			t.Errorf("recent key k%d evicted", i)
		}
	}
	if _, ok := s.Get("k0"); ok {
		t.Error("oldest key survived 47 evictions")
	}
	// A Get refreshes recency: touch the LRU survivor, insert one
	// more, and the untouched one goes instead.
	s.Get("k47")
	s.Put("fresh", strings.Repeat("y", 30))
	check()
	if _, ok := s.Get("k47"); !ok {
		t.Error("recently-touched key was evicted")
	}
	if _, ok := s.Get("k48"); ok {
		t.Error("LRU key survived eviction")
	}
	// An entry larger than the whole cap is never admitted.
	s.Put("huge", strings.Repeat("z", cap+1))
	check()
	if _, ok := s.Get("huge"); ok {
		t.Error("over-cap entry was admitted")
	}
}

func TestUpdateExistingKeyAdjustsBytes(t *testing.T) {
	s := memStore(t, 100)
	s.Put("k", "1234567890")
	s.Put("k", "12345")
	if st := s.Stats().Mem; st.Bytes != 5 || st.Entries != 1 {
		t.Errorf("after shrink: %d bytes / %d entries, want 5 / 1", st.Bytes, st.Entries)
	}
	if v, ok := s.Get("k"); !ok || v != "12345" {
		t.Errorf("updated value = %v, %v", v, ok)
	}
}

// Disk entries must survive into a fresh Store over the same
// directory — the warm-restart property.
func TestDiskTierSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s1 := diskStore(t, dir, 1<<20, 1<<20)
	s1.Put("alpha", "the first value")
	s1.Put("beta", "the second value")

	s2 := diskStore(t, dir, 1<<20, 1<<20)
	if st := s2.Stats().Disk; st.Entries != 2 {
		t.Fatalf("reopened disk tier has %d entries, want 2", st.Entries)
	}
	v, ok := s2.Get("alpha")
	if !ok || v != "the first value" {
		t.Fatalf("alpha after reopen = %v, %v", v, ok)
	}
	st := s2.Stats()
	if st.Disk.Hits != 1 || st.Mem.Misses != 1 {
		t.Errorf("stats after disk hit: disk hits %d (want 1), mem misses %d (want 1)",
			st.Disk.Hits, st.Mem.Misses)
	}
	// The disk hit was promoted: a repeat is a memory hit.
	if _, ok := s2.Get("alpha"); !ok {
		t.Fatal("promoted entry missing")
	}
	if st := s2.Stats(); st.Mem.Hits != 1 || st.Disk.Hits != 1 {
		t.Errorf("repeat should hit memory: %+v", st)
	}
}

// A corrupted or truncated entry must degrade into a miss and be
// deleted — never an error, never a panic, never a wrong value.
func TestCorruptDiskEntriesAreDroppedAsMisses(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(path string) error
	}{
		{"bit flip in payload", func(p string) error {
			data, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			data[len(data)-1] ^= 0xff
			return os.WriteFile(p, data, 0o666)
		}},
		{"truncated mid-payload", func(p string) error {
			data, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			return os.WriteFile(p, data[:len(data)-3], 0o666)
		}},
		{"truncated inside header", func(p string) error {
			return os.WriteFile(p, []byte("TFCS"), 0o666)
		}},
		{"wrong magic", func(p string) error {
			data, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			copy(data, "NOPE")
			return os.WriteFile(p, data, 0o666)
		}},
		{"previous format version", func(p string) error {
			data, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			binary.LittleEndian.PutUint32(data[4:8], diskFormatVersion-1)
			return os.WriteFile(p, data, 0o666)
		}},
		{"future format version", func(p string) error {
			data, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			data[4] = 0xfe
			return os.WriteFile(p, data, 0o666)
		}},
		{"lying payload length", func(p string) error {
			data, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			data[12]++
			return os.WriteFile(p, data, 0o666)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			// Tiny memory tier so the Get must go to disk.
			s := diskStore(t, dir, 1, 1<<20)
			s.Put("victim", "precious bytes")
			path := filepath.Join(dir, entryName("victim"))
			if _, err := os.Stat(path); err != nil {
				t.Fatalf("entry file missing before corruption: %v", err)
			}
			if err := tc.corrupt(path); err != nil {
				t.Fatal(err)
			}
			if v, ok := s.Get("victim"); ok {
				t.Fatalf("corrupted entry served: %v", v)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Error("corrupted entry file not deleted")
			}
			if st := s.Stats().Disk; st.Corrupt != 1 {
				t.Errorf("corrupt counter = %d, want 1", st.Corrupt)
			}
			// The slot is reusable.
			s.Put("victim", "recomputed")
			if v, ok := s.Get("victim"); !ok || v != "recomputed" {
				t.Errorf("after recompute: %v, %v", v, ok)
			}
		})
	}
}

// Reopening over corrupt files must also shrug them off.
func TestReopenOverCorruptFiles(t *testing.T) {
	dir := t.TempDir()
	s1 := diskStore(t, dir, 1, 1<<20)
	s1.Put("good", "value")
	if err := os.WriteFile(filepath.Join(dir, entryName("bad")), []byte("garbage"), 0o666); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, tmpPrefix+"leftover"), []byte("half"), 0o666); err != nil {
		t.Fatal(err)
	}
	s2 := diskStore(t, dir, 1, 1<<20)
	if v, ok := s2.Get("good"); !ok || v != "value" {
		t.Fatalf("good entry lost: %v, %v", v, ok)
	}
	if v, ok := s2.Get("bad"); ok {
		t.Fatalf("garbage entry served: %v", v)
	}
	if _, err := os.Stat(filepath.Join(dir, tmpPrefix+"leftover")); !os.IsNotExist(err) {
		t.Error("stale tmp file not swept at open")
	}
}

func TestDiskCapEvictsStalest(t *testing.T) {
	dir := t.TempDir()
	// Each entry is diskHeaderSize+40 bytes; cap fits two.
	s := diskStore(t, dir, 1, 2*(diskHeaderSize+40))
	for _, k := range []string{"a", "b", "c"} {
		s.Put(k, strings.Repeat(k, 40))
	}
	st := s.Stats().Disk
	if st.Entries != 2 || st.Evictions != 1 {
		t.Fatalf("disk tier: %d entries / %d evictions, want 2 / 1", st.Entries, st.Evictions)
	}
	if st.Bytes > st.CapBytes {
		t.Fatalf("disk tier at %d bytes, cap %d", st.Bytes, st.CapBytes)
	}
	if _, ok := s.Get("a"); ok {
		t.Error("stalest entry survived the cap")
	}
	for _, k := range []string{"b", "c"} {
		if _, ok := s.Get(k); !ok {
			t.Errorf("recent entry %q evicted", k)
		}
	}
}

func TestResetClearsBothTiersAndCounters(t *testing.T) {
	dir := t.TempDir()
	s := diskStore(t, dir, 1<<20, 1<<20)
	s.Put("k1", "v1")
	s.Put("k2", "v2")
	s.Get("k1")
	s.Get("nope")
	if err := s.Reset(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Mem != (TierStats{CapBytes: st.Mem.CapBytes}) {
		t.Errorf("memory tier not zeroed: %+v", st.Mem)
	}
	if st.Disk != (TierStats{CapBytes: st.Disk.CapBytes}) {
		t.Errorf("disk tier not zeroed: %+v", st.Disk)
	}
	if _, ok := s.Get("k1"); ok {
		t.Error("entry survived reset")
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), entrySuffix) {
			t.Errorf("entry file %s survived reset", e.Name())
		}
	}
	// The store keeps working after a reset.
	s.Put("k1", "again")
	if v, ok := s.Get("k1"); !ok || v != "again" {
		t.Errorf("post-reset put/get: %v, %v", v, ok)
	}
}

// Delete removes a single key from both tiers and tolerates absent
// keys (the batch layer uses it to take back a Put that raced a
// reset).
func TestDeleteRemovesFromBothTiers(t *testing.T) {
	dir := t.TempDir()
	s := diskStore(t, dir, 1<<20, 1<<20)
	s.Put("k", "value")
	s.Put("other", "kept")
	s.Delete("k")
	s.Delete("never-existed")
	if _, ok := s.Get("k"); ok {
		t.Fatal("deleted key still served")
	}
	if _, err := os.Stat(filepath.Join(dir, entryName("k"))); !os.IsNotExist(err) {
		t.Error("deleted entry file still on disk")
	}
	if v, ok := s.Get("other"); !ok || v != "kept" {
		t.Errorf("unrelated key damaged: %v, %v", v, ok)
	}
	st := s.Stats()
	if st.Mem.Entries != 1 || st.Disk.Entries != 1 {
		t.Errorf("entries after delete = mem %d / disk %d, want 1 / 1", st.Mem.Entries, st.Disk.Entries)
	}
	if st.Mem.Bytes != int64(len("kept")) {
		t.Errorf("memory bytes after delete = %d, want %d", st.Mem.Bytes, len("kept"))
	}
}

// Unencodable values stay memory-only; the disk tier is untouched.
func TestUnencodableValuesStayMemoryOnly(t *testing.T) {
	dir := t.TempDir()
	s := diskStore(t, dir, 1<<20, 1<<20)
	s.Put("n", 42) // int: the test codec declines it
	if st := s.Stats(); st.Disk.Entries != 0 || st.Mem.Entries != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if v, ok := s.Get("n"); !ok || v != 42 {
		t.Fatalf("memory-only value: %v, %v", v, ok)
	}
}

// The store must be race-clean under concurrent mixed use (run with
// -race in CI).
func TestConcurrentAccess(t *testing.T) {
	dir := t.TempDir()
	s := diskStore(t, dir, 400, 1<<14)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("k%d", (g+i)%20)
				if i%10 == 9 && g == 0 {
					_ = s.Reset()
					continue
				}
				if v, ok := s.Get(key); ok {
					if v != "payload-"+key {
						t.Errorf("wrong value for %s: %v", key, v)
					}
					continue
				}
				s.Put(key, "payload-"+key)
			}
		}(g)
	}
	wg.Wait()
	if b := s.Stats().Mem.Bytes; b > 400 {
		t.Errorf("memory tier over cap after concurrent use: %d", b)
	}
}
