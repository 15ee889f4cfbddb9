// Package resultcache is the content-addressed result store behind the
// experiments engine: a two-tier cache (in-memory LRU over an append-only
// disk journal) of simulation rows keyed by their canonical jobkey row
// address. Because every row is a pure function of its address
// (determinism invariant 3, with the address covering config, run length,
// statistical mode, and exact seed), a hit is not an approximation — it is
// bit-for-bit the row a fresh simulation would produce, so cached sweeps
// remain subject to every statistical cross-check that recomputed ones
// are. The store is the serving-layer foundation the ROADMAP's ethserved
// item lifts behind HTTP/WS unchanged.
//
// Disk layout: one file, results.jsonl, in the cache directory. The first
// line is {"version":1,"schema":S} where S is sim.ResultSchemaVersion;
// every following line is one row {"key":"<64 hex>","seed":N,
// "result":{...}}. The decoder is strict: a malformed line, a duplicated
// key, a version or schema skew, or a truncated tail (a final line missing
// its newline — the mark of a crash mid-write) rejects the whole file with
// ErrCache rather than silently serving corrupt rows. Wipe the directory
// (or repair the file to a line boundary) to recover; the cache then simply
// refills.
//
// The disk journal is also how an interrupted sweep resumes. Rows are
// appended line-atomically as they complete, and a graceful cancellation
// only stops dispatch, so the journal an interrupt leaves behind always
// ends on a line boundary; rerunning the sweep against the same directory
// serves every completed row and simulates only the rest, bit-identically.
//
// The memory tier holds decoded rows under an LRU bound. The disk tier is
// decoded once at Open, its rows strictly decoded across the worker pool,
// into a key -> byte-offset index that also keeps the decoded rows of the
// newest capacity lines. The first hit on a kept row costs no I/O and no
// decode: the row moves into the memory tier and the index drops its
// copy, so at most 2*capacity decoded rows are ever held. A hit on an
// older row, or on any row again after LRU eviction, is one ReadAt plus
// one strict decode. Either way a disk hit is promoted into memory.
// Writes append under a lock through a single handle; the cache is safe
// for concurrent use by the engine's workers but assumes a single writing
// process per directory.
package resultcache

import (
	"bytes"
	"container/list"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"

	"github.com/ethselfish/ethselfish/internal/parallel"
	"github.com/ethselfish/ethselfish/internal/sim"
)

// ErrCache is returned when a cache journal is malformed, truncated, or
// written under a different row schema.
var ErrCache = errors.New("resultcache: invalid cache journal")

// journalVersion identifies the cache journal's container format; the row
// payload schema is versioned separately by sim.ResultSchemaVersion.
const journalVersion = 1

// journalName is the journal's filename inside the cache directory.
const journalName = "results.jsonl"

// AddrSize is the length of a row address in bytes (a sha256 digest; the
// journal stores its 2*AddrSize-char hex form).
const AddrSize = 32

// DefaultMemoryEntries bounds the memory tier when the caller passes a
// non-positive capacity. At roughly 2-6 KB per decoded row this keeps the
// default cache in the tens of megabytes.
const DefaultMemoryEntries = 8192

// journalHeader is the journal's first line.
type journalHeader struct {
	Version int `json:"version"`
	Schema  int `json:"schema"`
}

// journalRow is one cached row on disk.
type journalRow struct {
	Key    string     `json:"key"`
	Seed   uint64     `json:"seed"`
	Result sim.Result `json:"result"`
}

// diskPos locates one row's line inside the journal. kept is the row's
// Result as decoded at Open, held until its first hit for the newest
// capacity rows (nil otherwise: a hit re-reads the line).
type diskPos struct {
	off  int64
	len  int
	seed uint64
	kept *sim.Result
}

// entry is one decoded row in the memory tier.
type entry struct {
	key    string
	seed   uint64
	result sim.Result
}

// Stats counts the cache's traffic. Hits split by serving tier; Stores
// counts rows newly added (duplicates of an already-cached key are
// ignored, not counted); Evictions counts memory-tier drops (disk-backed
// rows remain reachable after eviction, memory-only rows do not).
type Stats struct {
	MemoryHits uint64
	DiskHits   uint64
	Misses     uint64
	Stores     uint64
	Evictions  uint64
}

// Hits returns the total hit count across both tiers.
func (s Stats) Hits() uint64 { return s.MemoryHits + s.DiskHits }

// Cache is a two-tier content-addressed result store. Construct with
// NewMemory (memory tier only) or Open (memory over a disk journal); it is
// safe for concurrent use.
type Cache struct {
	mu    sync.Mutex
	cap   int
	lru   *list.List // of *entry, most recent first
	mem   map[string]*list.Element
	file  *os.File // nil: memory-only
	size  int64    // journal length; the offset the next append lands at
	index map[string]diskPos
	stats Stats
}

// NewMemory returns a memory-only cache bounded to capacity entries
// (non-positive: DefaultMemoryEntries). Evicted rows are recomputed on
// next use; nothing persists across processes.
func NewMemory(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultMemoryEntries
	}
	return &Cache{
		cap: capacity,
		lru: list.New(),
		mem: make(map[string]*list.Element),
	}
}

// Open opens (creating if needed) the disk-backed cache in dir, strictly
// validating any existing journal, and layers a memory LRU of the given
// capacity (non-positive: DefaultMemoryEntries) over it. A corrupt,
// truncated, or schema-skewed journal is rejected with ErrCache — it is
// never silently served from.
func Open(dir string, capacity int) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("resultcache: creating cache dir: %w", err)
	}
	path := filepath.Join(dir, journalName)
	data, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("resultcache: reading cache journal: %w", err)
	}
	c := NewMemory(capacity)
	index, err := decodeJournal(data, c.cap)
	if err != nil {
		return nil, fmt.Errorf("%w (wipe %s to start over)", err, dir)
	}
	file, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("resultcache: opening cache journal: %w", err)
	}
	c.file = file
	c.size = int64(len(data))
	c.index = index
	if len(data) == 0 {
		if err := c.writeLine(journalHeader{Version: journalVersion, Schema: sim.ResultSchemaVersion}); err != nil {
			file.Close()
			return nil, err
		}
	}
	return c, nil
}

// Close releases the disk journal's handle (a no-op for memory-only
// caches). The cache must not be used after Close.
func (c *Cache) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.file == nil {
		return nil
	}
	return c.file.Close()
}

// Len returns the number of reachable rows: every disk-indexed row plus
// any memory-only rows not yet evicted.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.index)
	for key := range c.mem {
		if _, onDisk := c.index[key]; !onDisk {
			n++
		}
	}
	return n
}

// Stats returns a snapshot of the cache's traffic counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// GetRaw returns the cached row at address key, checking memory then disk.
// The seed is a redundancy check: the address already commits to it, so a
// stored row under a different seed means hash collision or tampering and
// fails closed with ErrCache. A disk hit is promoted into the memory tier.
// The hex encoding of key lives on the stack and the memory probe converts
// it in place, so a memory hit — the steady state of a warmed sweep —
// allocates nothing.
func (c *Cache) GetRaw(key [AddrSize]byte, seed uint64) (sim.Result, bool, error) {
	var buf [2 * AddrSize]byte
	hex.Encode(buf[:], key[:])
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.mem[string(buf[:])]; ok {
		e := el.Value.(*entry)
		if e.seed != seed {
			return sim.Result{}, false, fmt.Errorf(
				"%w: row %.12s cached under seed %d, derived %d", ErrCache, e.key, e.seed, seed)
		}
		c.lru.MoveToFront(el)
		c.stats.MemoryHits++
		return e.result, true, nil
	}
	return c.getDiskLocked(string(buf[:]), seed)
}

// PutRaw stores one computed row under its address. A key already cached
// (in either tier) is left untouched — by content addressing the stored row
// is already the one being offered.
func (c *Cache) PutRaw(key [AddrSize]byte, seed uint64, result sim.Result) error {
	var buf [2 * AddrSize]byte
	hex.Encode(buf[:], key[:])
	c.mu.Lock()
	defer c.mu.Unlock()
	// Alloc-free duplicate probes first: by content addressing a present
	// row is already the offered one, so the hot no-op path stays cheap.
	if _, ok := c.mem[string(buf[:])]; ok {
		return nil
	}
	if _, ok := c.index[string(buf[:])]; ok {
		return nil
	}
	return c.putLocked(string(buf[:]), seed, result)
}

// getDiskLocked serves a GetRaw that missed the memory tier. Must be called
// with the lock held.
func (c *Cache) getDiskLocked(key string, seed uint64) (sim.Result, bool, error) {
	pos, ok := c.index[key]
	if !ok {
		c.stats.Misses++
		return sim.Result{}, false, nil
	}
	if pos.seed != seed {
		return sim.Result{}, false, fmt.Errorf(
			"%w: row %.12s journaled under seed %d, derived %d", ErrCache, key, pos.seed, seed)
	}
	var result sim.Result
	if pos.kept != nil {
		result = *pos.kept
		pos.kept = nil // the memory tier owns the row from here on
		c.index[key] = pos
	} else {
		buf := make([]byte, pos.len)
		if _, err := c.file.ReadAt(buf, pos.off); err != nil {
			return sim.Result{}, false, fmt.Errorf("resultcache: reading row %.12s: %w", key, err)
		}
		row, err := decodeRow(buf)
		if err != nil || row.Key != key || row.Seed != seed {
			return sim.Result{}, false, fmt.Errorf(
				"%w: row %.12s changed on disk after open (%v)", ErrCache, key, err)
		}
		result = row.Result
	}
	c.insert(key, seed, result)
	c.stats.DiskHits++
	return result, true, nil
}

// putLocked journals and inserts a row known to be absent from both tiers.
// Must be called with the lock held.
func (c *Cache) putLocked(key string, seed uint64, result sim.Result) error {
	if c.file != nil {
		line, err := json.Marshal(journalRow{Key: key, Seed: seed, Result: result})
		if err != nil {
			return fmt.Errorf("resultcache: encoding row: %w", err)
		}
		pos := diskPos{off: c.size, len: len(line), seed: seed}
		line = append(line, '\n')
		if _, err := c.file.Write(line); err != nil {
			return fmt.Errorf("resultcache: writing row: %w", err)
		}
		c.size += int64(len(line))
		c.index[key] = pos
	}
	c.insert(key, seed, result)
	c.stats.Stores++
	return nil
}

// insert adds a row to the memory tier, evicting from the LRU tail past
// capacity. Must be called with the lock held.
func (c *Cache) insert(key string, seed uint64, result sim.Result) {
	c.mem[key] = c.lru.PushFront(&entry{key: key, seed: seed, result: result})
	for c.lru.Len() > c.cap {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.mem, oldest.Value.(*entry).key)
		c.stats.Evictions++
	}
}

// writeLine appends one JSON line to the journal. Must be called with the
// lock held (or before the cache is shared).
func (c *Cache) writeLine(v any) error {
	line, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("resultcache: encoding journal line: %w", err)
	}
	line = append(line, '\n')
	if _, err := c.file.Write(line); err != nil {
		return fmt.Errorf("resultcache: writing journal: %w", err)
	}
	c.size += int64(len(line))
	return nil
}

// decodeJournal strictly parses a journal's bytes into the key -> position
// index, validating every row (including its Result payload). The rows are
// decoded across the worker pool; the index keeps the decoded Results of
// the last keep rows and drops the rest, since the memory tier fills on
// demand. Errors are deterministic: the first failing line in line order
// wins, whether it fails to decode, has a malformed key, or duplicates an
// earlier key. Empty input is a fresh journal.
func decodeJournal(data []byte, keep int) (map[string]diskPos, error) {
	index := make(map[string]diskPos)
	if len(data) == 0 {
		return index, nil
	}
	if data[len(data)-1] != '\n' {
		return nil, fmt.Errorf("%w: truncated final line", ErrCache)
	}
	lines := bytes.Split(data[:len(data)-1], []byte("\n"))
	var header journalHeader
	if err := strictUnmarshal(lines[0], &header); err != nil {
		return nil, fmt.Errorf("%w: line 1: %v", ErrCache, err)
	}
	if header.Version != journalVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCache, header.Version)
	}
	if header.Schema != sim.ResultSchemaVersion {
		return nil, fmt.Errorf("%w: rows written under result schema %d, this build uses %d",
			ErrCache, header.Schema, sim.ResultSchemaVersion)
	}
	rows := lines[1:]
	// Row errors travel with their line, so the sequential pass below
	// reports the first failure in line order; the pool's own error is
	// only ever a recovered panic. Workers drop the Results outside the
	// kept window as soon as they are validated, so Open never holds more
	// than keep of them.
	type decoded struct {
		key  string
		seed uint64
		kept *sim.Result
		err  error
	}
	results, err := parallel.Map(0, len(rows), func(i int) (decoded, error) {
		row, err := rowDecoder(rows[i])
		if err != nil {
			return decoded{err: err}, nil
		}
		d := decoded{key: row.Key, seed: row.Seed}
		if i >= len(rows)-keep {
			d.kept = &row.Result
		}
		return d, nil
	})
	if err != nil {
		return nil, fmt.Errorf("%w: decoding rows: %w", ErrCache, err)
	}
	offset := int64(len(lines[0]) + 1)
	for i, d := range results {
		lineNo := i + 2
		if d.err != nil {
			return nil, fmt.Errorf("%w: line %d: %v", ErrCache, lineNo, d.err)
		}
		if _, dup := index[d.key]; dup {
			return nil, fmt.Errorf("%w: line %d: row %.12s duplicated", ErrCache, lineNo, d.key)
		}
		index[d.key] = diskPos{off: offset, len: len(rows[i]), seed: d.seed, kept: d.kept}
		offset += int64(len(rows[i]) + 1)
	}
	return index, nil
}

// rowDecoder is the per-row decoder decodeJournal fans out across the
// worker pool; tests swap it to inject a panicking worker.
var rowDecoder = decodeRow

// decodeRow strictly decodes one journal row line, checks its key, and
// restores the Result's aliases.
func decodeRow(raw []byte) (*journalRow, error) {
	var row journalRow
	if err := strictUnmarshal(raw, &row); err != nil {
		return nil, err
	}
	if len(row.Key) != 2*AddrSize || !isHex(row.Key) {
		return nil, errors.New("malformed row key")
	}
	row.Result.RestoreAliases()
	return &row, nil
}

// strictUnmarshal decodes one JSON value rejecting unknown fields and
// trailing garbage.
func strictUnmarshal(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return errors.New("trailing data after JSON value")
	}
	return nil
}

// isHex reports whether s is entirely lowercase hex.
func isHex(s string) bool {
	for _, r := range s {
		if (r < '0' || r > '9') && (r < 'a' || r > 'f') {
			return false
		}
	}
	return true
}
