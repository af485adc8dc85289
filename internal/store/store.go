// Package store is the disk-backed, content-addressed result store
// behind scanpowerd's warm-start path: completed job results — the
// scanpower/comparison/v1 wire bytes plus a little run metadata — keyed
// by the circuit's structural fingerprint and switching-activity profile,
// one file per entry.
//
// The store gives a restarted daemon its memory back: a job whose result
// was computed before the restart is served from disk, bit-identical to
// the original response, with no ATPG or measurement work. Guarantees:
//
//   - atomic writes — entries are written to a temp file and renamed in,
//     so a crash mid-Put never leaves a half-entry the next Open could
//     serve;
//   - corruption detection — every entry carries a CRC-32 of its result
//     bytes plus the entry and wire schema versions; a truncated,
//     bit-flipped or version-mismatched entry is deleted on read, never
//     served;
//   - bounded size — Put evicts least-recently-used entries once the
//     store exceeds MaxBytes;
//   - warm start — Open scans the directory and rebuilds the index, so
//     hits are served from the first request after a restart.
//
// Deadlines are deliberately absent from the key: they bound how long a
// job may run, not what it computes, so jobs differing only in timeout
// share one entry.
package store

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// EntrySchemaV1 tags the on-disk entry layout. Bump on any breaking
// change to the entry file format; Open deletes entries with any other
// tag.
const EntrySchemaV1 = "scanpower/store-entry/v1"

// Key identifies one stored result: the frozen circuit's structural
// fingerprint plus every job option that changes the computed bytes.
type Key struct {
	// Fingerprint is netlist.Circuit.Fingerprint() of the frozen circuit.
	Fingerprint uint64
	// Measure is the measurement backend name in the entry's file name.
	// scanpowerd runs one kernel and always stores under "packed", the
	// name earlier daemons gave their default entries, so their stores
	// stay warm.
	Measure string
	// Activity is the job's switching-activity profile hash
	// (power.ActivityProfile.Hash), 0 when the job carries none. An
	// activity profile adds columns to the result document, so jobs that
	// differ only in activity must not share an entry.
	Activity uint64
}

// id returns the filename-safe form of the key. Keys without activity
// keep the pre-activity two-part form, so stores written before the
// activity extension stay warm across the upgrade.
func (k Key) id() string {
	if k.Activity == 0 {
		return fmt.Sprintf("%016x-%s", k.Fingerprint, k.Measure)
	}
	return fmt.Sprintf("%016x-%s-a%016x", k.Fingerprint, k.Measure, k.Activity)
}

// Meta is the run metadata stored alongside the result bytes.
type Meta struct {
	// Circuit is the job's circuit name (informational; the fingerprint
	// is authoritative).
	Circuit string
	// Elapsed is how long the original computation took.
	Elapsed time.Duration
}

// entryV1 is the on-disk JSON layout of one entry. Result holds the
// wire-schema bytes verbatim (they are compact json.Marshal output, so
// embedding them as a RawMessage preserves them byte for byte).
type entryV1 struct {
	Schema     string          `json:"schema"`
	WireSchema string          `json:"wire_schema"`
	Key        string          `json:"key"`
	Circuit    string          `json:"circuit,omitempty"`
	Measure    string          `json:"measure"`
	CreatedAt  string          `json:"created_at"`
	ElapsedNS  int64           `json:"elapsed_ns,omitempty"`
	Checksum   string          `json:"checksum"`
	Result     json.RawMessage `json:"result"`
}

func checksum(b []byte) string {
	return fmt.Sprintf("crc32:%08x", crc32.ChecksumIEEE(b))
}

// Options configures Open.
type Options struct {
	// MaxBytes caps the total size of entry files; Put evicts the
	// least-recently-used entries past it. 0 means no cap.
	MaxBytes int64
	// WireSchema is the schema tag entries must carry (for example
	// scanpower.ComparisonSchemaV1). Entries with any other tag are
	// invalidated — deleted, not served — on Open and on Get, so a wire
	// schema bump never replays stale bytes.
	WireSchema string
}

// Stats is a point-in-time view of the store's counters.
type Stats struct {
	Entries   int
	Bytes     int64
	Hits      int64
	Misses    int64
	Puts      int64
	Evictions int64
	// Corrupt counts entries deleted because their checksum, schema or
	// key did not verify (at Open or Get).
	Corrupt int64
}

// entryInfo is the in-memory index record of one entry file.
type entryInfo struct {
	size   int64
	access int64 // LRU clock: larger = more recently used
}

// Store is the disk-backed result store. Open creates it; it is safe for
// concurrent use. A nil *Store is a valid no-op store: Get always
// misses and Put discards.
type Store struct {
	dir  string
	opts Options

	mu      sync.Mutex
	entries map[string]entryInfo
	size    int64
	clock   int64
	stats   Stats
}

// Open creates (if needed) and indexes the store directory, deleting
// entries that fail verification or carry a stale schema. The rebuild
// reads every entry once; the result bytes are verified again on each
// Get, so a corruption introduced after Open is still caught.
func Open(dir string, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{dir: dir, opts: opts, entries: make(map[string]entryInfo)}

	names, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	// Oldest files get the oldest LRU stamps, so the cap evicts in
	// roughly original age order after a restart.
	type candidate struct {
		path string
		mod  time.Time
	}
	var cands []candidate
	for _, path := range names {
		fi, err := os.Stat(path)
		if err != nil {
			continue
		}
		cands = append(cands, candidate{path, fi.ModTime()})
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].mod.Before(cands[j].mod) })
	for _, cand := range cands {
		id := strings.TrimSuffix(filepath.Base(cand.path), ".json")
		if _, err := s.readVerified(cand.path, id); err != nil {
			s.stats.Corrupt++
			os.Remove(cand.path)
			continue
		}
		s.clock++
		s.entries[id] = entryInfo{size: entrySize(cand.path), access: s.clock}
		s.size += s.entries[id].size
	}
	s.evictLocked()
	return s, nil
}

func entrySize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

// Dir returns the store's directory ("" on a nil store).
func (s *Store) Dir() string {
	if s == nil {
		return ""
	}
	return s.dir
}

func (s *Store) path(id string) string {
	return filepath.Join(s.dir, id+".json")
}

// readVerified parses and verifies one entry file: entry schema, wire
// schema, key match and result checksum all have to hold.
func (s *Store) readVerified(path, wantID string) (*entryV1, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var e entryV1
	if err := json.Unmarshal(raw, &e); err != nil {
		return nil, fmt.Errorf("store: entry %s unparseable: %w", wantID, err)
	}
	if e.Schema != EntrySchemaV1 {
		return nil, fmt.Errorf("store: entry %s schema %q, want %q", wantID, e.Schema, EntrySchemaV1)
	}
	if s.opts.WireSchema != "" && e.WireSchema != s.opts.WireSchema {
		return nil, fmt.Errorf("store: entry %s wire schema %q, want %q", wantID, e.WireSchema, s.opts.WireSchema)
	}
	if e.Key != wantID {
		return nil, fmt.Errorf("store: entry %s claims key %q", wantID, e.Key)
	}
	if got := checksum(e.Result); got != e.Checksum {
		return nil, fmt.Errorf("store: entry %s checksum %s, recorded %s", wantID, got, e.Checksum)
	}
	return &e, nil
}

// Get returns the stored wire bytes and metadata for key. ok is false on
// a miss; an entry that fails verification counts as corrupt, is deleted
// and reads as a miss.
func (s *Store) Get(key Key) (wire []byte, meta Meta, ok bool) {
	if s == nil {
		return nil, Meta{}, false
	}
	id := key.id()
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.entries[id]; !exists {
		s.stats.Misses++
		return nil, Meta{}, false
	}
	e, err := s.readVerified(s.path(id), id)
	if err != nil {
		s.dropLocked(id)
		s.stats.Corrupt++
		s.stats.Misses++
		return nil, Meta{}, false
	}
	s.clock++
	info := s.entries[id]
	info.access = s.clock
	s.entries[id] = info
	s.stats.Hits++
	return []byte(e.Result), Meta{
		Circuit: e.Circuit,
		Elapsed: time.Duration(e.ElapsedNS),
	}, true
}

// Put stores wire (which must be the compact output of a single
// json.Marshal of the wire type — the bytes are returned verbatim by
// Get) under key, overwriting any existing entry, then enforces the
// size cap. Errors are returned, not fatal: a full disk degrades the
// store to a cache miss, never the job itself.
func (s *Store) Put(key Key, meta Meta, wire []byte) error {
	if s == nil {
		return nil
	}
	id := key.id()
	e := entryV1{
		Schema:     EntrySchemaV1,
		WireSchema: s.opts.WireSchema,
		Key:        id,
		Circuit:    meta.Circuit,
		Measure:    key.Measure,
		CreatedAt:  time.Now().UTC().Format(time.RFC3339Nano),
		ElapsedNS:  meta.Elapsed.Nanoseconds(),
		Checksum:   checksum(wire),
		Result:     json.RawMessage(wire),
	}
	raw, err := json.Marshal(&e)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	tmp, err := os.CreateTemp(s.dir, id+".tmp-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if _, err := tmp.Write(raw); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp.Name(), s.path(id)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	if old, exists := s.entries[id]; exists {
		s.size -= old.size
	}
	s.clock++
	s.entries[id] = entryInfo{size: int64(len(raw)), access: s.clock}
	s.size += int64(len(raw))
	s.stats.Puts++
	s.evictLocked()
	return nil
}

// dropLocked removes one entry (index and file). Callers hold s.mu.
func (s *Store) dropLocked(id string) {
	if info, exists := s.entries[id]; exists {
		s.size -= info.size
		delete(s.entries, id)
	}
	os.Remove(s.path(id))
}

// evictLocked enforces the size cap, dropping least-recently-used
// entries first. Callers hold s.mu.
func (s *Store) evictLocked() {
	if s.opts.MaxBytes <= 0 {
		return
	}
	for s.size > s.opts.MaxBytes && len(s.entries) > 0 {
		oldest, oldestAccess := "", int64(0)
		for id, info := range s.entries {
			if oldest == "" || info.access < oldestAccess {
				oldest, oldestAccess = id, info.access
			}
		}
		s.dropLocked(oldest)
		s.stats.Evictions++
	}
}

// Len returns the number of indexed entries.
func (s *Store) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Stats returns the current counters.
func (s *Store) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Entries = len(s.entries)
	st.Bytes = s.size
	return st
}
