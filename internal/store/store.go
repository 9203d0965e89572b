// Package store is the persistence layer under the serving stack: a
// disk-backed result store that survives process restarts. Entries are
// keyed by caller-canonicalized strings (the same canonical
// PointSpec-derived keys the in-memory caches use) and stamped with a
// model version, so results computed under stale physics are invalidated
// by bumping the version rather than by deleting files.
//
// Layout: the store directory holds append-only segment files
// (0000000001.seg, 0000000002.seg, ...) and a quarantine/ subdirectory.
// Every Put and Delete appends one record to the newest (active) segment,
// which rolls to a fresh file at segmentBytes. A record is the entry
// encoding (a line-oriented header of magic, quoted version, quoted key,
// payload length and payload CRC-32, then the payload) followed by a
// fixed-size trailer holding the CRC-32 of the header, so a damaged key or
// length is caught as surely as a damaged payload. A delete is a
// tombstone: a record stamped with the empty version, which no Options
// may carry.
//
// An in-memory index maps each key to its newest record (segment, offset,
// length). Open rebuilds it by scanning the segments oldest first, so the
// last record of a key wins. Get is one positioned read of the record
// followed by a full decode and both CRC checks; a key absent from the
// index is a miss without a syscall.
//
// Failure model:
//
//   - A record whose header reads but whose payload fails its CRC is
//     dropped from the index and copied into quarantine/; the scan goes on
//     past it. A record whose header cannot be read (malformed, torn or
//     failing the trailer check) ends its segment's scan: the rest of that
//     segment is copied into quarantine/, and in the active segment it is
//     truncated away, so the next append follows the last good record.
//     Corruption costs a recomputation, never a panic or a poisoned cache.
//   - Records carrying a different model-version stamp are indexed as
//     stale: Get and Walk skip them, and the next Put of the key replaces
//     them. Compaction drops them.
//   - Compaction rewrites the live records into fresh segments once dead
//     bytes (overwritten, deleted, stale or quarantined records) exceed
//     the live bytes and compactFloor. It fsyncs the new segments and the
//     directory before it removes the old segments, oldest first, so a
//     crash at any point leaves every live record readable. On-disk bytes
//     stay within twice the live bytes plus one segment.
//   - Puts are not fsynced: a crash may lose the most recent writes (a
//     torn tail is truncated on the next Open), never an older record.
//
// A directory written by the one-file-per-entry layout (entries/*.entry)
// is imported once by Open: entries under the store's version are
// appended to the log, then the old files are removed.
//
// A Store owns its directory: open one per directory at a time, and Close
// it before another opens. It is safe for concurrent use within one
// process. Standard library only.
package store

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// magic is the first header line of every entry; bump the trailing
// format number when the encoding changes shape.
const magic = "coldtall-store/1"

const (
	// segmentExt is the suffix of segment files.
	segmentExt = ".seg"
	// segmentBytes is the size at which the active segment rolls. A
	// record larger than it gets a segment of its own.
	segmentBytes = 64 << 20
	// compactFloor is the dead-byte count below which compaction never
	// runs, so a small store is not rewritten for a few overwrites.
	compactFloor = 1 << 20
	// maxHeader bounds a record header. Put refuses a key that would
	// exceed it, and a scan treats a longer header as unreadable.
	maxHeader = 64 << 10
	// trailerLen is the size of the header-CRC trailer ("head %08x\n").
	trailerLen = len("head 00000000\n")
	// tombstoneVersion stamps a delete record. Open requires a non-empty
	// version, so no live record can carry it.
	tombstoneVersion = ""
)

// quarantineDir receives corrupt records; legacyDir and legacyExt name the
// one-file-per-entry layout that Open imports.
const (
	quarantineDir = "quarantine"
	legacyDir     = "entries"
	legacyExt     = ".entry"
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
	// Corrupt counts records (or segment tails) that failed to decode
	// and were quarantined.
	Corrupt int64
	// Skipped counts entries ignored for carrying a different model
	// version.
	Skipped int64
	// Entries is the current number of indexed keys (all versions).
	Entries int
}

// segment is one append-only segment file, held open for the store's
// lifetime.
type segment struct {
	id   uint64
	f    *os.File
	size int64
}

// loc is where a key's newest record lives.
type loc struct {
	seg *segment
	off int64
	n   int64 // record bytes, trailer included
	// stale marks a record under another model version.
	stale bool
}

// Store is a disk-backed key-value store of result blobs. Construct with
// Open; safe for concurrent use.
type Store struct {
	dir     string
	version string

	// mu guards everything below. Get and Walk read under the read lock;
	// Put, Delete, compaction and Close hold the write lock.
	mu     sync.RWMutex
	segs   []*segment // ascending id; the last is the active segment
	index  map[string]loc
	live   int64 // record bytes of the non-stale indexed keys
	disk   int64 // bytes of every segment
	floor  int64 // dead bytes that trigger compaction (see maybeCompact)
	closed bool

	hits, misses, puts, corrupt, skipped atomic.Int64
}

// errClosed is returned by writes to a closed store.
var errClosed = errors.New("store: closed")

// Open creates (or reopens) a store rooted at dir: it rebuilds the index
// from the segments, truncates a torn tail off the active segment, and
// imports a legacy entries/ directory. Damaged records are quarantined,
// never fatal; Open fails only on I/O errors.
func Open(dir string, opts Options) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: directory must not be empty")
	}
	if opts.Version == "" {
		return nil, fmt.Errorf("store: a model version stamp is required")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{dir: dir, version: opts.Version, index: map[string]loc{}, floor: compactFloor}
	if err := s.load(); err != nil {
		s.closeFiles()
		return nil, fmt.Errorf("store: open: %w", err)
	}
	return s, nil
}

// load scans every segment into the index, opens the active segment and
// imports the legacy layout.
func (s *Store) load() error {
	names, err := os.ReadDir(s.dir)
	if err != nil {
		return err
	}
	var ids []uint64
	for _, e := range names {
		id, err := strconv.ParseUint(strings.TrimSuffix(e.Name(), segmentExt), 10, 64)
		if err == nil && !e.IsDir() && e.Name() == segmentName(id) {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for i, id := range ids {
		f, err := os.OpenFile(s.segPath(id), os.O_RDWR, 0)
		if err != nil {
			return err
		}
		seg := &segment{id: id, f: f}
		s.segs = append(s.segs, seg)
		if err := s.scan(seg, i == len(ids)-1); err != nil {
			return err
		}
	}
	if len(s.segs) == 0 {
		if err := s.roll(); err != nil {
			return err
		}
	}
	return s.importLegacy()
}

func segmentName(id uint64) string { return fmt.Sprintf("%010d%s", id, segmentExt) }

func (s *Store) segPath(id uint64) string { return filepath.Join(s.dir, segmentName(id)) }

// keyHash is the index hash of a key, the SHA-256 of the key truncated to
// 160 bits: Walk visits keys in its order, which is the file-name order of
// the one-file-per-entry layout.
func keyHash(key string) [20]byte {
	sum := sha256.Sum256([]byte(key))
	return [20]byte(sum[:20])
}

// encodeEntry renders an entry: a line-oriented header (magic, quoted
// version, quoted key, payload length, payload CRC-32) followed by the raw
// payload bytes. The buffer has room for the segment trailer.
func encodeEntry(version, key string, val []byte) []byte {
	b := make([]byte, 0, len(magic)+len(version)+len(key)+len(val)+64+trailerLen)
	b = fmt.Appendf(b, "%s\nversion %s\nkey %s\nlen %d\ncrc32 %08x\n",
		magic, strconv.Quote(version), strconv.Quote(key), len(val), crc32.ChecksumIEEE(val))
	return append(b, val...)
}

// encodeRecord renders a segment record: the entry, then the trailer
// holding the CRC-32 of the entry's header.
func encodeRecord(version, key string, val []byte) ([]byte, error) {
	rec := encodeEntry(version, key, val)
	head := len(rec) - len(val)
	if head > maxHeader {
		return nil, fmt.Errorf("key of %d bytes is too long", len(key))
	}
	return appendTrailer(rec, rec[:head]), nil
}

func appendTrailer(b, head []byte) []byte {
	return fmt.Appendf(b, "head %08x\n", crc32.ChecksumIEEE(head))
}

// errCorrupt marks an entry that failed structural or checksum validation.
var errCorrupt = fmt.Errorf("store: corrupt entry")

// header is a parsed entry header.
type header struct {
	version, key string
	n            int    // payload bytes
	crc          uint32 // payload CRC-32
	size         int    // header bytes; the payload starts here
}

// parseHeader parses the header at the start of b. Any structural defect,
// b ending inside the header included, returns errCorrupt.
func parseHeader(b []byte) (header, error) {
	var h header
	line := func() (string, error) {
		i := bytes.IndexByte(b[h.size:], '\n')
		if i < 0 {
			return "", errCorrupt
		}
		l := string(b[h.size : h.size+i])
		h.size += i + 1
		return l, nil
	}
	first, err := line()
	if err != nil || first != magic {
		return h, errCorrupt
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
	if h.version, err = quoted("version"); err != nil {
		return h, err
	}
	if h.key, err = quoted("key"); err != nil {
		return h, err
	}
	lenField, err := field("len")
	if err != nil {
		return h, err
	}
	if h.n, err = strconv.Atoi(lenField); err != nil || h.n < 0 || strconv.Itoa(h.n) != lenField {
		return h, errCorrupt
	}
	crcField, err := field("crc32")
	if err != nil {
		return h, err
	}
	crc, err := strconv.ParseUint(crcField, 16, 32)
	if err != nil || fmt.Sprintf("%08x", crc) != crcField {
		return h, errCorrupt
	}
	h.crc = uint32(crc)
	return h, nil
}

// payload returns the payload of raw, an entry whose header is h, checking
// its length and CRC.
func (h header) payload(raw []byte) ([]byte, error) {
	if len(raw)-h.size != h.n {
		return nil, errCorrupt // truncated, or trailing garbage
	}
	val := raw[h.size:]
	if crc32.ChecksumIEEE(val) != h.crc {
		return nil, errCorrupt
	}
	return val, nil
}

// decodeEntry parses an encoded entry, returning its version stamp, key
// and payload (a subslice of raw). Any structural defect — truncation, bad
// quoting, a length or CRC mismatch, trailing garbage — returns
// errCorrupt.
func decodeEntry(raw []byte) (version, key string, val []byte, err error) {
	h, err := parseHeader(raw)
	if err != nil {
		return "", "", nil, errCorrupt
	}
	if val, err = h.payload(raw); err != nil {
		return "", "", nil, err
	}
	return h.version, h.key, val, nil
}

// decodeRecord is decodeEntry for a segment record: the entry must be
// followed by exactly its header's trailer.
func decodeRecord(rec []byte) (h header, val []byte, err error) {
	if h, err = parseHeader(rec); err != nil {
		return h, nil, err
	}
	end := len(rec) - trailerLen
	if end < h.size {
		return h, nil, errCorrupt
	}
	var want [trailerLen]byte
	if !bytes.Equal(rec[end:], appendTrailer(want[:0], rec[:h.size])) {
		return h, nil, errCorrupt
	}
	val, err = h.payload(rec[:end])
	return h, val, err
}

// scan reads seg's records into the index. A record whose payload fails
// its CRC is quarantined and skipped; the first record whose header cannot
// be read ends the scan, and the rest of the segment is quarantined (and,
// in the active segment, truncated).
func (s *Store) scan(seg *segment, active bool) error {
	fi, err := seg.f.Stat()
	if err != nil {
		return err
	}
	size := fi.Size()
	// Twice maxHeader, so Peek refills once per maxHeader bytes read, not
	// once per record.
	r := bufio.NewReaderSize(io.NewSectionReader(seg.f, 0, size), 2*maxHeader)
	payload := crc32.NewIEEE()
	buf := make([]byte, 32<<10)
	var off int64
	for off < size {
		win, _ := r.Peek(maxHeader) // fewer bytes at the end of the segment
		h, err := parseHeader(win)
		if err != nil {
			break
		}
		want := appendTrailer(nil, win[:h.size])
		r.Discard(h.size)
		payload.Reset()
		if _, err := io.CopyBuffer(payload, io.LimitReader(r, int64(h.n)), buf); err != nil {
			break
		}
		got := buf[:trailerLen]
		if _, err := io.ReadFull(r, got); err != nil || !bytes.Equal(got, want) {
			break // torn, or a header the trailer does not vouch for
		}
		n := int64(h.size + h.n + trailerLen)
		switch {
		case payload.Sum32() != h.crc:
			s.quarantine(seg, off, n, "rec")
			s.forget(h.key)
		case h.version == tombstoneVersion:
			s.forget(h.key)
		default:
			s.remember(h.key, loc{seg: seg, off: off, n: n, stale: h.version != s.version})
		}
		off += n
	}
	seg.size = size
	s.disk += size
	if off == size {
		return nil
	}
	s.quarantine(seg, off, size-off, "tail")
	if !active {
		return nil // dead bytes until the next compaction
	}
	if err := seg.f.Truncate(off); err != nil {
		return err
	}
	seg.size = off
	s.disk -= size - off
	return nil
}

// remember points key at l, keeping the live-byte count.
func (s *Store) remember(key string, l loc) {
	s.forget(key)
	s.index[key] = l
	if !l.stale {
		s.live += l.n
	}
}

// forget drops key from the index, keeping the live-byte count.
func (s *Store) forget(key string) {
	if old, ok := s.index[key]; ok {
		if !old.stale {
			s.live -= old.n
		}
		delete(s.index, key)
	}
}

// quarantine copies n bytes of seg at off into quarantine/, named by
// segment and offset, and counts them in Stats.Corrupt. The copy is for
// forensics only (the caller stops indexing the bytes either way), so it
// is best effort.
func (s *Store) quarantine(seg *segment, off, n int64, kind string) {
	s.corrupt.Add(1)
	dir := filepath.Join(s.dir, quarantineDir)
	if os.MkdirAll(dir, 0o755) != nil {
		return
	}
	name := fmt.Sprintf("%010d-%d.%s", seg.id, off, kind)
	dst, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return
	}
	io.Copy(dst, io.NewSectionReader(seg.f, off, n))
	dst.Close()
}

// importLegacy appends every same-version entries/*.entry file the log
// does not already hold, syncs the log, and removes the old files.
// Corrupt files move into quarantine/; other-version entries and the
// jobcell| and resp| namespaces nothing reads any more are dropped.
func (s *Store) importLegacy() error {
	dir := filepath.Join(s.dir, legacyDir)
	names, err := os.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	var done []string
	imported := false
	for _, e := range names {
		path := filepath.Join(dir, e.Name())
		switch {
		case e.IsDir():
			continue
		case !strings.HasSuffix(e.Name(), legacyExt):
			if strings.HasPrefix(e.Name(), "tmp-") { // an interrupted legacy Put
				done = append(done, path)
			}
			continue
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		version, key, val, err := decodeEntry(raw)
		if err != nil {
			s.corrupt.Add(1)
			if err := os.MkdirAll(filepath.Join(s.dir, quarantineDir), 0o755); err != nil {
				return err
			}
			if err := os.Rename(path, filepath.Join(s.dir, quarantineDir, e.Name())); err != nil {
				return err
			}
			continue
		}
		done = append(done, path)
		if version != s.version {
			s.skipped.Add(1)
			continue
		}
		if _, ok := s.index[key]; ok || strings.HasPrefix(key, "jobcell|") || strings.HasPrefix(key, "resp|") {
			continue
		}
		rec, err := encodeRecord(s.version, key, val)
		if err != nil {
			continue // a key this layout cannot frame; nothing could read it
		}
		if err := s.append(key, rec, true); err != nil {
			return err
		}
		imported = true
	}
	// The imported records must be on disk before their only other copy
	// goes.
	if imported {
		if err := s.segs[len(s.segs)-1].f.Sync(); err != nil {
			return err
		}
	}
	for _, path := range done {
		if err := os.Remove(path); err != nil {
			return err
		}
	}
	os.Remove(dir) // fails, harmlessly, if anything unexpected is left
	return nil
}

// Put writes (or overwrites) key: one write of one record at the end of
// the active segment.
func (s *Store) Put(key string, val []byte) error {
	rec, err := encodeRecord(s.version, key, val)
	if err == nil {
		s.mu.Lock()
		err = s.append(key, rec, true)
		s.mu.Unlock()
	}
	if err != nil {
		return fmt.Errorf("store: put %q: %w", key, err)
	}
	s.puts.Add(1)
	return nil
}

// Delete removes key's entry by appending a tombstone, so the delete
// survives a restart. Deleting an absent key is a no-op.
func (s *Store) Delete(key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.index[key]; !ok {
		return nil
	}
	rec, err := encodeRecord(tombstoneVersion, key, nil)
	if err == nil {
		err = s.append(key, rec, false)
	}
	if err != nil {
		return fmt.Errorf("store: delete %q: %w", key, err)
	}
	return nil
}

// append writes rec at the end of the active segment (rolling first if it
// would overflow a non-empty one) and points key at it, or, for a
// tombstone (live false), drops key. Called with mu held.
func (s *Store) append(key string, rec []byte, live bool) error {
	if s.closed {
		return errClosed
	}
	seg := s.segs[len(s.segs)-1]
	n := int64(len(rec))
	if seg.size > 0 && seg.size+n > segmentBytes {
		if err := s.roll(); err != nil {
			return err
		}
		seg = s.segs[len(s.segs)-1]
	}
	if _, err := seg.f.WriteAt(rec, seg.size); err != nil {
		seg.f.Truncate(seg.size) // best effort; the next append overwrites it anyway
		return err
	}
	off := seg.size
	seg.size += n
	s.disk += n
	if live {
		s.remember(key, loc{seg: seg, off: off, n: n})
	} else {
		s.forget(key)
	}
	s.maybeCompact()
	return nil
}

// roll opens a fresh active segment. Called with mu held (or from Open).
func (s *Store) roll() error {
	id := uint64(1)
	if len(s.segs) > 0 {
		id = s.segs[len(s.segs)-1].id + 1
	}
	seg, err := s.create(id)
	if err != nil {
		return err
	}
	s.segs = append(s.segs, seg)
	return nil
}

// create makes the empty segment file id, which must not exist yet.
func (s *Store) create(id uint64) (*segment, error) {
	f, err := os.OpenFile(s.segPath(id), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, err
	}
	return &segment{id: id, f: f}, nil
}

// maybeCompact compacts once dead bytes exceed both the live bytes and
// the floor. A failed compaction leaves every old segment in place, so it
// loses nothing; it is retried once another compactFloor of dead bytes has
// built up. Called with mu held.
func (s *Store) maybeCompact() {
	dead := s.disk - s.live
	if dead <= s.live || dead <= s.floor {
		return
	}
	if err := s.compact(); err != nil {
		s.floor = dead + compactFloor
		return
	}
	s.floor = compactFloor
}

// compact copies every live record, in (segment, offset) order, into new
// segments numbered after the active one, syncs them and the directory,
// and only then removes the old segments, oldest first. A crash before
// the removals leaves duplicates of live records, which the next scan
// resolves to the same values; removing oldest first means a surviving
// old segment never lacks a later tombstone. Called with mu held.
func (s *Store) compact() error {
	keys := make([]string, 0, len(s.index))
	for k, l := range s.index {
		if !l.stale {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := s.index[keys[i]], s.index[keys[j]]
		return a.seg.id < b.seg.id || a.seg.id == b.seg.id && a.off < b.off
	})
	old := s.segs
	var out []*segment
	fail := func(err error) error {
		for _, seg := range out {
			seg.f.Close()
			os.Remove(s.segPath(seg.id))
		}
		return err
	}
	cur, err := s.create(old[len(old)-1].id + 1)
	if err != nil {
		return err
	}
	out = append(out, cur)
	w := bufio.NewWriterSize(cur.f, 1<<20)
	index := make(map[string]loc, len(keys))
	var live int64
	var buf []byte
	for _, k := range keys {
		l := s.index[k]
		if int64(cap(buf)) < l.n {
			buf = make([]byte, l.n)
		}
		buf = buf[:l.n]
		if _, err := l.seg.f.ReadAt(buf, l.off); err != nil {
			return fail(err)
		}
		if h, _, err := decodeRecord(buf); err != nil || h.key != k || h.version != s.version {
			s.quarantine(l.seg, l.off, l.n, "rec")
			continue
		}
		if cur.size > 0 && cur.size+l.n > segmentBytes {
			if err := w.Flush(); err != nil {
				return fail(err)
			}
			if cur, err = s.create(cur.id + 1); err != nil {
				return fail(err)
			}
			out = append(out, cur)
			w.Reset(cur.f)
		}
		if _, err := w.Write(buf); err != nil {
			return fail(err)
		}
		index[k] = loc{seg: cur, off: cur.size, n: l.n}
		cur.size += l.n
		live += l.n
	}
	if err := w.Flush(); err != nil {
		return fail(err)
	}
	for _, seg := range out {
		if err := seg.f.Sync(); err != nil {
			return fail(err)
		}
	}
	if err := s.syncDir(); err != nil {
		return fail(err)
	}
	for _, seg := range old {
		seg.f.Close()
	}
	for _, seg := range old {
		// Stop at the first failure: what stays must be the newest old
		// segments, so none outlives a later tombstone. The next Open
		// scans the leftovers as dead bytes.
		if os.Remove(s.segPath(seg.id)) != nil {
			break
		}
	}
	s.segs, s.index, s.live, s.disk = out, index, live, live
	return s.syncDir()
}

func (s *Store) syncDir() error {
	d, err := os.Open(s.dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// outcome is what a read of one key found.
type outcome int

const (
	absent outcome = iota
	stale
	found
)

// read returns key's payload. A record that fails to decode, or no longer
// matches its index entry, is quarantined and dropped from the index.
func (s *Store) read(key string) ([]byte, outcome) {
	s.mu.RLock()
	l, ok := s.index[key]
	if !ok || s.closed {
		s.mu.RUnlock()
		return nil, absent
	}
	if l.stale {
		s.mu.RUnlock()
		return nil, stale
	}
	rec := make([]byte, l.n)
	_, err := l.seg.f.ReadAt(rec, l.off)
	s.mu.RUnlock()
	if err != nil {
		return nil, absent
	}
	h, val, err := decodeRecord(rec)
	if err == nil && h.key == key && h.version == s.version {
		return val, found
	}
	s.mu.Lock()
	if cur, ok := s.index[key]; ok && cur == l && !s.closed {
		s.quarantine(l.seg, l.off, l.n, "rec")
		s.forget(key)
	}
	s.mu.Unlock()
	return nil, absent
}

// Get returns the stored payload for key. Missing entries, entries under
// a different model version, and corrupt entries (quarantined as a side
// effect) all report a miss — the store never surfaces a value it cannot
// vouch for.
func (s *Store) Get(key string) ([]byte, bool) {
	val, o := s.read(key)
	switch o {
	case found:
		s.hits.Add(1)
		return val, true
	case stale:
		s.skipped.Add(1)
	}
	s.misses.Add(1)
	return nil, false
}

// Walk calls fn for every live same-version entry whose key starts with
// prefix, in deterministic order: ascending keyHash. Corrupt entries are
// quarantined and skipped; entries under other model versions are
// skipped. fn may call back into the store. A non-nil error from fn stops
// the walk and is returned.
func (s *Store) Walk(prefix string, fn func(key string, val []byte) error) error {
	type hashed struct {
		key string
		sum [20]byte
	}
	var keys []hashed
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return errClosed
	}
	for k, l := range s.index {
		switch {
		case !strings.HasPrefix(k, prefix):
		case l.stale:
			s.skipped.Add(1)
		default:
			keys = append(keys, hashed{key: k})
		}
	}
	s.mu.RUnlock()
	for i := range keys {
		keys[i].sum = keyHash(keys[i].key)
	}
	sort.Slice(keys, func(i, j int) bool { return bytes.Compare(keys[i].sum[:], keys[j].sum[:]) < 0 })
	for _, k := range keys {
		val, o := s.read(k.key)
		if o != found {
			continue // deleted or quarantined since the snapshot
		}
		if err := fn(k.key, val); err != nil {
			return err
		}
	}
	return nil
}

// Len counts indexed keys (all versions).
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.index)
}

// Stats returns a snapshot of the traffic counters plus the entry count.
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

// Close releases the segment files. Writes after Close fail and reads
// miss; closing twice is a no-op.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	return s.closeFiles()
}

func (s *Store) closeFiles() error {
	var first error
	for _, seg := range s.segs {
		if err := seg.f.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
