package codecache

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// Codec serializes cache payloads for the on-disk store. The cache itself is
// payload-agnostic (entries are `any`); the consumer that defines the payload
// type — the jit driver — supplies the codec.
type Codec interface {
	// Encode serializes v. ok=false means "do not persist this payload"
	// (e.g. jit skips entries carrying context-dependent fallback records);
	// that is a policy decision, not an error.
	Encode(v any) (data []byte, ok bool)

	// Decode reconstructs a payload and reports its resident size (the byte
	// charge for the in-memory cache). A decode error marks the entry
	// corrupt: the store quarantines the file.
	Decode(data []byte) (v any, size int64, err error)
}

// DiskStats counts what a DiskStore did over its lifetime.
type DiskStats struct {
	Loads       uint64 `json:"loads"`       // entries served from disk
	LoadMisses  uint64 `json:"load_misses"` // keys with no on-disk entry
	Stores      uint64 `json:"stores"`      // entries written
	Quarantined uint64 `json:"quarantined"` // corrupt entries moved aside
	Errors      uint64 `json:"errors"`      // I/O failures (degraded to miss/no-op)
	Skipped     uint64 `json:"skipped"`     // payloads the codec declined to persist
}

// DiskStore is a crash-safe, content-addressed on-disk entry store. Each
// entry is one file named by the hex of its key under a two-hex-digit prefix
// directory (dir/ab/abcdef….sxe — the same fingerprint-prefix sharding the
// in-memory cache uses for locks, here keeping directories small).
//
// Crash safety comes from two mechanisms:
//
//   - writes go to a same-directory temp file that is fsync'd and renamed
//     into place, so a crash — even kill -9 mid-write — leaves either the
//     old entry, no entry, or a stray *.tmp file that Open sweeps away; a
//     torn final file cannot exist;
//   - every file embeds a SHA-256 of its payload, verified on load; an entry
//     that is corrupt anyway (bit rot, a torn write on a filesystem without
//     atomic rename, a chaos campaign flipping bytes) is quarantined —
//     renamed to *.quarantine, counted, and treated as a miss — so one bad
//     artifact costs one recompile, never a wrong answer and never a crash
//     loop.
//
// Every failure path degrades to "miss" or "no-op": a DiskStore never turns
// an I/O problem into a caller-visible error.
type DiskStore struct {
	dir   string
	codec Codec

	loads       atomic.Uint64
	loadMisses  atomic.Uint64
	stores      atomic.Uint64
	quarantined atomic.Uint64
	errors      atomic.Uint64
	skipped     atomic.Uint64

	mu sync.Mutex // serializes writers to the same entry file
}

const (
	diskMagic  = "sxd1" // format version; bumped on incompatible changes
	diskSuffix = ".sxe"
)

// OpenDiskStore opens (creating if needed) the store rooted at dir and sweeps
// stray temp files left by a crashed writer.
func OpenDiskStore(dir string, codec Codec) (*DiskStore, error) {
	if codec == nil {
		return nil, fmt.Errorf("codecache: OpenDiskStore needs a codec")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("codecache: %w", err)
	}
	s := &DiskStore{dir: dir, codec: codec}
	// A crash can only leave *.tmp files (rename is atomic); they are
	// garbage by construction.
	tmps, _ := filepath.Glob(filepath.Join(dir, "*", "*.tmp"))
	for _, t := range tmps {
		os.Remove(t)
	}
	return s, nil
}

// Dir returns the store's root directory.
func (s *DiskStore) Dir() string { return s.dir }

func (s *DiskStore) path(k Key) string {
	h := hex.EncodeToString(k[:])
	return filepath.Join(s.dir, h[:2], h+diskSuffix)
}

// Store persists v under k (write-through, atomic). Payloads the codec
// declines and I/O failures are counted and otherwise ignored: persistence
// is an optimization, never a correctness dependency.
func (s *DiskStore) Store(k Key, v any) {
	data, ok := s.codec.Encode(v)
	if !ok {
		s.skipped.Add(1)
		return
	}
	sum := sha256.Sum256(data)
	var buf bytes.Buffer
	buf.Grow(len(diskMagic) + len(sum) + len(data))
	buf.WriteString(diskMagic)
	buf.Write(sum[:])
	buf.Write(data)

	path := s.path(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		s.errors.Add(1)
		return
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), "*.tmp")
	if err != nil {
		s.errors.Add(1)
		return
	}
	_, werr := tmp.Write(buf.Bytes())
	if werr == nil {
		werr = tmp.Sync()
	}
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp.Name(), path)
	}
	if werr != nil {
		os.Remove(tmp.Name())
		s.errors.Add(1)
		return
	}
	s.stores.Add(1)
}

// Load reads and verifies the entry stored under k. It returns the decoded
// payload and its resident size, or ok=false on a miss. A file that fails
// the magic, hash or decode check is quarantined and reported as a miss.
func (s *DiskStore) Load(k Key) (v any, size int64, ok bool) {
	path := s.path(k)
	raw, err := os.ReadFile(path)
	if err != nil {
		if !os.IsNotExist(err) {
			s.errors.Add(1)
		}
		s.loadMisses.Add(1)
		return nil, 0, false
	}
	header := len(diskMagic) + sha256.Size
	if len(raw) < header || string(raw[:len(diskMagic)]) != diskMagic {
		s.loadMisses.Add(1)
		s.quarantine(path)
		return nil, 0, false
	}
	var want [sha256.Size]byte
	copy(want[:], raw[len(diskMagic):header])
	body := raw[header:]
	if sha256.Sum256(body) != want {
		s.loadMisses.Add(1)
		s.quarantine(path)
		return nil, 0, false
	}
	val, sz, err := s.codec.Decode(body)
	if err != nil {
		s.loadMisses.Add(1)
		s.quarantine(path)
		return nil, 0, false
	}
	s.loads.Add(1)
	return val, sz, true
}

// quarantine moves a corrupt entry aside (never deletes: chaos campaigns and
// humans both want the evidence).
func (s *DiskStore) quarantine(path string) {
	s.quarantined.Add(1)
	if err := os.Rename(path, path+".quarantine"); err != nil {
		// Last resort: remove, so the corrupt entry cannot be re-read forever.
		os.Remove(path)
	}
}

// Len walks the store and returns the number of intact-looking entry files.
// O(entries); intended for tests and the stats endpoint, not hot paths.
func (s *DiskStore) Len() int {
	matches, _ := filepath.Glob(filepath.Join(s.dir, "*", "*"+diskSuffix))
	return len(matches)
}

// Stats returns a snapshot of the store's counters.
func (s *DiskStore) Stats() DiskStats {
	return DiskStats{
		Loads:       s.loads.Load(),
		LoadMisses:  s.loadMisses.Load(),
		Stores:      s.stores.Load(),
		Quarantined: s.quarantined.Load(),
		Errors:      s.errors.Load(),
		Skipped:     s.skipped.Load(),
	}
}

// Spill layers a DiskStore under an in-memory cache: gets fall through to
// disk (promoting hits into memory), puts write through to both. Because
// every put is persisted immediately and the store's writes are atomic, the
// warm set survives any crash — including kill -9 — with no shutdown hook
// needed. Spill satisfies Interface, so the jit driver uses it untouched.
type Spill struct {
	mem  Interface
	disk *DiskStore
}

var _ Interface = (*Spill)(nil)

// NewSpill combines a memory cache and a disk store.
func NewSpill(mem Interface, disk *DiskStore) *Spill {
	return &Spill{mem: mem, disk: disk}
}

// Disk returns the underlying store (for its stats).
func (s *Spill) Disk() *DiskStore { return s.disk }

// Get checks memory first, then disk. A disk hit is promoted into the memory
// cache (charged at its decoded size) so subsequent gets are pure memory.
func (s *Spill) Get(k Key) (any, bool) {
	if v, ok := s.mem.Get(k); ok {
		return v, true
	}
	v, size, ok := s.disk.Load(k)
	if !ok {
		return nil, false
	}
	s.mem.Put(k, v, size)
	return v, true
}

// Put stores v in memory and persists it (write-through).
func (s *Spill) Put(k Key, v any, size int64) {
	s.mem.Put(k, v, size)
	s.disk.Store(k, v)
}

// Remove drops the entry from memory only: the persisted copy is not a
// correctness hazard (it is re-verified by hash and, under paranoid mode, by
// the deep verifier on every load).
func (s *Spill) Remove(k Key) { s.mem.Remove(k) }

// RejectParanoid drops the entry from memory, records the rejection, and
// quarantines the persisted copy: an entry that failed deep verification
// must not be resurrected from disk on the next miss.
func (s *Spill) RejectParanoid(k Key) {
	s.mem.RejectParanoid(k)
	if _, err := os.Stat(s.disk.path(k)); err == nil {
		s.disk.quarantine(s.disk.path(k))
	}
}

// SetParanoid toggles paranoid mode on the memory cache.
func (s *Spill) SetParanoid(on bool) { s.mem.SetParanoid(on) }

// Paranoid reports whether paranoid re-verification is enabled.
func (s *Spill) Paranoid() bool { return s.mem.Paranoid() }

// Stats returns the memory cache's consistent snapshot. Disk counters are
// separate (Disk().Stats()): mixing the two would make HitRate meaningless.
func (s *Spill) Stats() Stats { return s.mem.Stats() }

// Len returns the number of in-memory entries.
func (s *Spill) Len() int { return s.mem.Len() }
