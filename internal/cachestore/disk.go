package cachestore

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// On-disk layout: one file per entry, named by the SHA-256 of the
// cache key (keys are arbitrary strings; hashing them makes a safe,
// fixed-length file name), with the suffix entrySuffix. Each file is:
//
//	offset 0  magic "TFCS"
//	       4  u32 LE format version
//	       8  u32 LE CRC-32 (IEEE) of the payload
//	      12  u64 LE payload length
//	      20  payload (Codec.Encode output)
//
// Writes go to an O_EXCL temporary name in the same directory and are
// renamed into place, so a reader never observes a half-written entry
// and a crash leaves at most a tmp file (swept at Open). Bumping
// diskFormatVersion invalidates every existing entry cleanly: old
// files fail the header check, count as corrupt, and are deleted.
// Version 2 marks the switch of thermflowd's payloads from binary
// compilations to JSON wire answers.
const (
	diskMagic         = "TFCS"
	diskFormatVersion = 2
	diskHeaderSize    = 20
	entrySuffix       = ".tfc"
	tmpPrefix         = "tfc-tmp-"
)

// maxEntryBytes rejects absurd payload lengths before allocating
// (a corrupt length field must not become an allocation bomb).
const maxEntryBytes = 1 << 31

type diskTier struct {
	dir   string
	cap   int64
	codec Codec

	mu     sync.Mutex
	byName map[string]*list.Element
	lru    *list.List // front = most recently used
	bytes  int64
	stat   TierStats
}

// diskEntry is one indexed file.
type diskEntry struct {
	name string // file name within dir
	size int64  // whole-file size, header included
}

func entryName(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:]) + entrySuffix
}

// openDisk creates (if needed) and indexes the directory. Entries
// surviving from a previous process are seeded into the LRU in
// modification-time order, so the cap evicts the stalest first; tmp
// files from interrupted writes are swept.
func openDisk(dir string, capBytes int64, codec Codec) (*diskTier, error) {
	if capBytes <= 0 {
		capBytes = DefaultMaxDiskBytes
	}
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, fmt.Errorf("cachestore: creating disk tier: %w", err)
	}
	d := &diskTier{
		dir:    dir,
		cap:    capBytes,
		codec:  codec,
		byName: make(map[string]*list.Element),
		lru:    list.New(),
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("cachestore: indexing disk tier: %w", err)
	}
	type seed struct {
		name  string
		size  int64
		mtime int64
	}
	var seeds []seed
	for _, ent := range ents {
		name := ent.Name()
		if strings.HasPrefix(name, tmpPrefix) {
			_ = os.Remove(filepath.Join(dir, name))
			continue
		}
		if !strings.HasSuffix(name, entrySuffix) || ent.IsDir() {
			continue
		}
		info, err := ent.Info()
		if err != nil {
			continue
		}
		seeds = append(seeds, seed{name, info.Size(), info.ModTime().UnixNano()})
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i].mtime < seeds[j].mtime })
	for _, sd := range seeds {
		d.byName[sd.name] = d.lru.PushFront(&diskEntry{name: sd.name, size: sd.size})
		d.bytes += sd.size
	}
	d.mu.Lock()
	d.evictLocked()
	d.mu.Unlock()
	return d, nil
}

// get reads, validates and decodes the entry for key. Any validation
// or decode failure deletes the file and reports a miss; only a
// healthy entry counts as a hit.
func (d *diskTier) get(key string) (any, bool) {
	name := entryName(key)
	d.mu.Lock()
	el, ok := d.byName[name]
	if ok {
		d.lru.MoveToFront(el)
	}
	d.mu.Unlock()
	if !ok {
		d.count(func(t *TierStats) { t.Misses++ })
		return nil, false
	}
	payload, err := readEntry(filepath.Join(d.dir, name))
	if err != nil {
		// A vanished file means a concurrent eviction or reset — a
		// plain miss. Anything else is corruption.
		if !errors.Is(err, os.ErrNotExist) {
			d.dropCorrupt(name)
		}
		d.count(func(t *TierStats) { t.Misses++ })
		return nil, false
	}
	v, err := d.codec.Decode(payload)
	if err != nil {
		d.dropCorrupt(name)
		d.count(func(t *TierStats) { t.Misses++ })
		return nil, false
	}
	d.count(func(t *TierStats) { t.Hits++ })
	return v, true
}

// put encodes and durably writes the entry, then enforces the cap.
// Failures (unencodable value, I/O error) are silent: the disk tier is
// an accelerator, not a system of record.
func (d *diskTier) put(key string, v any) {
	payload, err := d.codec.Encode(v)
	if err != nil {
		return // ErrUnencodable or a codec fault: stay memory-only
	}
	name := entryName(key)
	size, err := writeEntry(d.dir, name, payload)
	if err != nil {
		return
	}
	d.mu.Lock()
	if el, ok := d.byName[name]; ok {
		e := el.Value.(*diskEntry)
		d.bytes += size - e.size
		e.size = size
		d.lru.MoveToFront(el)
	} else {
		d.byName[name] = d.lru.PushFront(&diskEntry{name: name, size: size})
		d.bytes += size
		d.stat.Puts++
	}
	d.evictLocked()
	d.mu.Unlock()
}

// evictLocked removes least-recently-used entries until the tier fits
// its cap. Callers hold d.mu; file removal happens inline (entry files
// are small and eviction is rare).
func (d *diskTier) evictLocked() {
	for d.bytes > d.cap {
		el := d.lru.Back()
		if el == nil {
			break
		}
		e := el.Value.(*diskEntry)
		d.lru.Remove(el)
		delete(d.byName, e.name)
		d.bytes -= e.size
		d.stat.Evictions++
		_ = os.Remove(filepath.Join(d.dir, e.name))
	}
}

// delete removes one entry from the index and the directory.
func (d *diskTier) delete(key string) {
	name := entryName(key)
	d.mu.Lock()
	if el, ok := d.byName[name]; ok {
		e := el.Value.(*diskEntry)
		d.lru.Remove(el)
		delete(d.byName, name)
		d.bytes -= e.size
	}
	d.mu.Unlock()
	_ = os.Remove(filepath.Join(d.dir, name))
}

// dropCorrupt removes a failed entry from the index and the directory.
func (d *diskTier) dropCorrupt(name string) {
	d.mu.Lock()
	if el, ok := d.byName[name]; ok {
		e := el.Value.(*diskEntry)
		d.lru.Remove(el)
		delete(d.byName, name)
		d.bytes -= e.size
	}
	d.stat.Corrupt++
	d.mu.Unlock()
	_ = os.Remove(filepath.Join(d.dir, name))
}

// reset deletes every indexed entry and zeroes the counters.
func (d *diskTier) reset() error {
	d.mu.Lock()
	names := make([]string, 0, len(d.byName))
	for name := range d.byName {
		names = append(names, name)
	}
	d.byName = make(map[string]*list.Element)
	d.lru = list.New()
	d.bytes = 0
	d.stat = TierStats{}
	d.mu.Unlock()
	var first error
	for _, name := range names {
		if err := os.Remove(filepath.Join(d.dir, name)); err != nil && !errors.Is(err, os.ErrNotExist) && first == nil {
			first = fmt.Errorf("cachestore: resetting disk tier: %w", err)
		}
	}
	return first
}

func (d *diskTier) stats() TierStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := d.stat
	out.Entries = d.lru.Len()
	out.Bytes = d.bytes
	out.CapBytes = d.cap
	return out
}

func (d *diskTier) count(f func(*TierStats)) {
	d.mu.Lock()
	f(&d.stat)
	d.mu.Unlock()
}

// writeEntry frames payload and writes it via a temporary file plus
// atomic rename, returning the whole-file size.
func writeEntry(dir, name string, payload []byte) (int64, error) {
	if int64(len(payload)) > maxEntryBytes {
		return 0, fmt.Errorf("cachestore: entry payload of %d bytes exceeds limit", len(payload))
	}
	hdr := make([]byte, 0, diskHeaderSize)
	hdr = append(hdr, diskMagic...)
	hdr = binary.LittleEndian.AppendUint32(hdr, diskFormatVersion)
	hdr = binary.LittleEndian.AppendUint32(hdr, crc32.ChecksumIEEE(payload))
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(len(payload)))

	tmp, err := os.CreateTemp(dir, tmpPrefix+"*")
	if err != nil {
		return 0, err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(hdr); err != nil {
		tmp.Close()
		return 0, err
	}
	if _, err := tmp.Write(payload); err != nil {
		tmp.Close()
		return 0, err
	}
	if err := tmp.Close(); err != nil {
		return 0, err
	}
	if err := os.Rename(tmp.Name(), filepath.Join(dir, name)); err != nil {
		return 0, err
	}
	return int64(diskHeaderSize + len(payload)), nil
}

// readEntry validates the frame and returns the payload. os.ErrNotExist
// passes through (a racing eviction, not corruption); every other
// failure means the entry is damaged.
func readEntry(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) < diskHeaderSize {
		return nil, fmt.Errorf("cachestore: entry truncated at %d bytes", len(data))
	}
	if string(data[:4]) != diskMagic {
		return nil, fmt.Errorf("cachestore: bad entry magic %q", data[:4])
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != diskFormatVersion {
		return nil, fmt.Errorf("cachestore: entry format version %d, want %d", v, diskFormatVersion)
	}
	wantCRC := binary.LittleEndian.Uint32(data[8:12])
	plen := binary.LittleEndian.Uint64(data[12:20])
	if plen > maxEntryBytes || int64(plen) != int64(len(data)-diskHeaderSize) {
		return nil, fmt.Errorf("cachestore: entry payload length %d disagrees with file size %d", plen, len(data))
	}
	payload := data[diskHeaderSize:]
	if got := crc32.ChecksumIEEE(payload); got != wantCRC {
		return nil, fmt.Errorf("cachestore: entry checksum mismatch: %08x != %08x", got, wantCRC)
	}
	return payload, nil
}
