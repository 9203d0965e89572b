// Package store is the persistence layer under the serving stack: a
// disk-backed, content-addressed result store that survives process
// restarts. Entries are keyed by caller-canonicalized strings (the same
// canonical PointSpec-derived keys the in-memory caches use) and stamped
// with a model version, so results computed under stale physics are
// invalidated by bumping the version rather than by deleting files.
//
// Durability model:
//
//   - Writes are atomic at the entry level: the payload is written to a
//     temporary file in the store directory and renamed into place, so a
//     reader (or a crash) never observes a half-written entry.
//   - Reads verify a CRC over the payload; an entry that fails to decode
//     is moved into a quarantine subdirectory and reported as a miss —
//     corruption can cost a recomputation, never a panic or a poisoned
//     cache.
//   - Entries carrying a different model-version stamp are skipped (and
//     overwritten by the next Put of the same key), which is how a physics
//     change invalidates the whole store without a migration.
//
// The store is safe for concurrent use within one process. Standard
// library only.
package store

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
)

// magic is the first header line of every entry file; bump the trailing
// format number when the encoding changes shape.
const magic = "coldtall-store/1"

// entryExt is the on-disk suffix of live entries.
const entryExt = ".entry"

// entriesDir and quarantineDir are the store's two subdirectories.
const (
	entriesDir    = "entries"
	quarantineDir = "quarantine"
)

// Options configures Open.
type Options struct {
	// Version is the model-version stamp written into every entry and
	// required of every entry read back. Entries carrying a different
	// version are skipped, which is how stale physics is invalidated.
	// Required.
	Version string
}

// Stats is a point-in-time view of store traffic.
type Stats struct {
	// Hits and Misses count Get lookups (a version-skewed or corrupt
	// entry counts as a miss).
	Hits, Misses int64
	// Puts counts successful writes.
	Puts int64
	// Corrupt counts entries that failed to decode and were quarantined.
	Corrupt int64
	// Skipped counts entries ignored for carrying a different model
	// version.
	Skipped int64
	// Entries is the current number of live entry files.
	Entries int
}

// Store is a disk-backed key-value store of result blobs. Construct with
// Open; safe for concurrent use.
type Store struct {
	dir     string
	version string

	hits, misses, puts, corrupt, skipped atomic.Int64
}

// Open creates (or reopens) a store rooted at dir. The directory and its
// entries/quarantine subdirectories are created if missing.
func Open(dir string, opts Options) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: directory must not be empty")
	}
	if opts.Version == "" {
		return nil, fmt.Errorf("store: a model version stamp is required")
	}
	for _, sub := range []string{entriesDir, quarantineDir} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	return &Store{dir: dir, version: opts.Version}, nil
}

// Version returns the model-version stamp entries are written with.
func (s *Store) Version() string { return s.version }

// fileFor maps a key to its entry path: entries are addressed by the
// SHA-256 of the key (truncated to 160 bits — far beyond collision reach
// for this keyspace), so arbitrary key strings never meet the filesystem.
// The name is version-independent: a Put under a new model version
// overwrites the stale entry in place instead of leaking it forever.
func (s *Store) fileFor(key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(s.dir, entriesDir, hex.EncodeToString(sum[:20])+entryExt)
}

// encodeEntry renders the on-disk form: a line-oriented header (magic,
// quoted version, quoted key, payload length, payload CRC-32) followed by
// the raw payload bytes.
func encodeEntry(version, key string, val []byte) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%s\nversion %s\nkey %s\nlen %d\ncrc32 %08x\n",
		magic, strconv.Quote(version), strconv.Quote(key), len(val), crc32.ChecksumIEEE(val))
	b.Write(val)
	return b.Bytes()
}

// errCorrupt marks an entry that failed structural or checksum validation.
var errCorrupt = fmt.Errorf("store: corrupt entry")

// decodeEntry parses an encoded entry, returning its version stamp, key
// and payload. Any structural defect — truncation, bad quoting, a length
// or CRC mismatch, trailing garbage — returns errCorrupt.
func decodeEntry(raw []byte) (version, key string, val []byte, err error) {
	r := bufio.NewReader(bytes.NewReader(raw))
	line := func() (string, error) {
		l, err := r.ReadString('\n')
		if err != nil {
			return "", errCorrupt
		}
		return strings.TrimSuffix(l, "\n"), nil
	}
	first, err := line()
	if err != nil || first != magic {
		return "", "", nil, errCorrupt
	}
	field := func(name string) (string, error) {
		l, err := line()
		if err != nil {
			return "", err
		}
		rest, ok := strings.CutPrefix(l, name+" ")
		if !ok {
			return "", errCorrupt
		}
		return rest, nil
	}
	// The decoder is strict: every field must carry the one canonical
	// spelling encodeEntry produces (no alternate escapes, no leading
	// zeros), so decode∘encode is a fixed point — the property the fuzz
	// harness pins.
	quoted := func(name string) (string, error) {
		raw, err := field(name)
		if err != nil {
			return "", err
		}
		v, err := strconv.Unquote(raw)
		if err != nil || strconv.Quote(v) != raw {
			return "", errCorrupt
		}
		return v, nil
	}
	if version, err = quoted("version"); err != nil {
		return "", "", nil, err
	}
	if key, err = quoted("key"); err != nil {
		return "", "", nil, err
	}
	lenField, err := field("len")
	if err != nil {
		return "", "", nil, err
	}
	n, err := strconv.Atoi(lenField)
	if err != nil || n < 0 || strconv.Itoa(n) != lenField {
		return "", "", nil, errCorrupt
	}
	crcField, err := field("crc32")
	if err != nil {
		return "", "", nil, err
	}
	wantCRC, err := strconv.ParseUint(crcField, 16, 32)
	if err != nil || fmt.Sprintf("%08x", wantCRC) != crcField {
		return "", "", nil, errCorrupt
	}
	val = make([]byte, n)
	if _, err := io.ReadFull(r, val); err != nil {
		return "", "", nil, errCorrupt
	}
	if _, err := r.ReadByte(); err != io.EOF {
		return "", "", nil, errCorrupt // trailing garbage
	}
	if crc32.ChecksumIEEE(val) != uint32(wantCRC) {
		return "", "", nil, errCorrupt
	}
	return version, key, val, nil
}

// Put writes (or overwrites) key atomically: the entry is staged in a
// temporary file in the store directory and renamed into place, so
// concurrent readers and an interrupted process observe either the old
// entry or the new one, never a torn write.
func (s *Store) Put(key string, val []byte) error {
	path := s.fileFor(key)
	tmp, err := os.CreateTemp(filepath.Dir(path), "tmp-*")
	if err != nil {
		return fmt.Errorf("store: put %q: %w", key, err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(encodeEntry(s.version, key, val)); err != nil {
		tmp.Close()
		return fmt.Errorf("store: put %q: %w", key, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: put %q: %w", key, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("store: put %q: %w", key, err)
	}
	s.puts.Add(1)
	return nil
}

// Get returns the stored payload for key. Missing entries, entries under
// a different model version, and corrupt entries (quarantined as a side
// effect) all report a miss — the store never surfaces a value it cannot
// vouch for.
func (s *Store) Get(key string) ([]byte, bool) {
	path := s.fileFor(key)
	raw, err := os.ReadFile(path)
	if err != nil {
		s.misses.Add(1)
		return nil, false
	}
	version, gotKey, val, err := decodeEntry(raw)
	if err != nil {
		s.quarantine(path)
		s.misses.Add(1)
		return nil, false
	}
	if version != s.version {
		s.skipped.Add(1)
		s.misses.Add(1)
		return nil, false
	}
	if gotKey != key {
		// A truncated-hash collision or a renamed file; treat as absent
		// rather than serving another key's result.
		s.misses.Add(1)
		return nil, false
	}
	s.hits.Add(1)
	return val, true
}

// Delete removes key's entry; deleting an absent key is a no-op.
func (s *Store) Delete(key string) error {
	err := os.Remove(s.fileFor(key))
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("store: delete %q: %w", key, err)
	}
	return nil
}

// quarantine moves a corrupt entry aside (into quarantine/ under its
// original name) so it stops being re-read, stays available for forensics,
// and never poisons a cache. Counted in Stats.Corrupt.
func (s *Store) quarantine(path string) {
	s.corrupt.Add(1)
	dst := filepath.Join(s.dir, quarantineDir, filepath.Base(path))
	if err := os.Rename(path, dst); err != nil {
		os.Remove(path) // second-best: at least stop re-reading it
	}
}

// Walk calls fn for every live same-version entry in deterministic (file
// name) order. Corrupt entries are quarantined and skipped; entries under
// other model versions are skipped. A non-nil error from fn stops the walk
// and is returned.
func (s *Store) Walk(fn func(key string, val []byte) error) error {
	dir := filepath.Join(s.dir, entriesDir)
	names, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("store: walk: %w", err)
	}
	sorted := make([]string, 0, len(names))
	for _, e := range names {
		if !e.IsDir() && strings.HasSuffix(e.Name(), entryExt) {
			sorted = append(sorted, e.Name())
		}
	}
	sort.Strings(sorted)
	for _, name := range sorted {
		path := filepath.Join(dir, name)
		raw, err := os.ReadFile(path)
		if err != nil {
			continue // raced with a Delete/quarantine; nothing to visit
		}
		version, key, val, err := decodeEntry(raw)
		if err != nil {
			s.quarantine(path)
			continue
		}
		if version != s.version {
			s.skipped.Add(1)
			continue
		}
		if err := fn(key, val); err != nil {
			return err
		}
	}
	return nil
}

// Len counts live entry files (all versions).
func (s *Store) Len() int {
	names, err := os.ReadDir(filepath.Join(s.dir, entriesDir))
	if err != nil {
		return 0
	}
	n := 0
	for _, e := range names {
		if !e.IsDir() && strings.HasSuffix(e.Name(), entryExt) {
			n++
		}
	}
	return n
}

// Stats returns a snapshot of the traffic counters plus the live entry
// count.
func (s *Store) Stats() Stats {
	return Stats{
		Hits:    s.hits.Load(),
		Misses:  s.misses.Load(),
		Puts:    s.puts.Load(),
		Corrupt: s.corrupt.Load(),
		Skipped: s.skipped.Load(),
		Entries: s.Len(),
	}
}
