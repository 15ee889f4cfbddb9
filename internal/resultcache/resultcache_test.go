package resultcache

import (
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"github.com/ethselfish/ethselfish/internal/jobkey"
	"github.com/ethselfish/ethselfish/internal/mining"
	"github.com/ethselfish/ethselfish/internal/parallel"
	"github.com/ethselfish/ethselfish/internal/sim"
)

// testRow is one (address, seed, expected result) triple; the expectation
// comes from a real simulation so every GetRaw can be checked against
// recomputation.
type testRow struct {
	key    jobkey.Key
	seed   uint64
	result sim.Result
}

// makeRows simulates n distinct rows across two configs (timeless and
// timed, so both Result shapes are exercised).
func makeRows(t testing.TB, n int) []testRow {
	t.Helper()
	pop, err := mining.TwoAgent(0.3)
	if err != nil {
		t.Fatal(err)
	}
	pop2, err := mining.MultiAgent(0.25, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	configs := []sim.Config{
		{Population: pop, Gamma: 0.5, Blocks: 500},
		{Population: pop2, Gamma: 0.3, Blocks: 800, Time: sim.TimeConfig{Enabled: true}},
	}
	rows := make([]testRow, 0, n)
	for i := 0; len(rows) < n; i++ {
		cfg := configs[i%len(configs)]
		cfg.Seed = uint64(1000 + i)
		res, err := sim.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		key := jobkey.ForConfig(cfg).Row(cfg.Seed)
		rows = append(rows, testRow{key: key, seed: cfg.Seed, result: res})
	}
	return rows
}

func TestMemoryPutGet(t *testing.T) {
	rows := makeRows(t, 3)
	c := NewMemory(8)
	if _, ok, err := c.GetRaw(rows[0].key, rows[0].seed); err != nil || ok {
		t.Fatalf("GetRaw on empty cache = (%v, %v), want miss", ok, err)
	}
	for _, r := range rows {
		if err := c.PutRaw(r.key, r.seed, r.result); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range rows {
		got, ok, err := c.GetRaw(r.key, r.seed)
		if err != nil || !ok {
			t.Fatalf("GetRaw(%.12s) = (%v, %v), want hit", r.key, ok, err)
		}
		if !reflect.DeepEqual(got, r.result) {
			t.Errorf("row %.12s differs from the stored result", r.key)
		}
	}
	// Duplicate Put of a cached key is a no-op, not a second store.
	if err := c.PutRaw(rows[0].key, rows[0].seed, rows[0].result); err != nil {
		t.Fatal(err)
	}
	s := c.Stats()
	if s.Stores != 3 || s.MemoryHits != 3 || s.Misses != 1 {
		t.Errorf("stats = %+v, want 3 stores, 3 memory hits, 1 miss", s)
	}
	// A seed disagreeing with the content address fails closed.
	if _, _, err := c.GetRaw(rows[0].key, rows[0].seed+1); !errors.Is(err, ErrCache) {
		t.Errorf("seed-mismatch GetRaw err = %v, want ErrCache", err)
	}
}

func TestMemoryEviction(t *testing.T) {
	rows := makeRows(t, 4)
	c := NewMemory(2)
	for _, r := range rows {
		if err := c.PutRaw(r.key, r.seed, r.result); err != nil {
			t.Fatal(err)
		}
	}
	if s := c.Stats(); s.Evictions != 2 {
		t.Fatalf("evictions = %d, want 2", s.Evictions)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	// The oldest rows are gone (memory-only: a miss, not an error); the
	// newest survive.
	if _, ok, _ := c.GetRaw(rows[0].key, rows[0].seed); ok {
		t.Error("evicted row still served")
	}
	if _, ok, _ := c.GetRaw(rows[3].key, rows[3].seed); !ok {
		t.Error("fresh row evicted out of order")
	}
}

func TestDiskReloadServesRows(t *testing.T) {
	rows := makeRows(t, 3)
	dir := t.TempDir()
	c, err := Open(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if err := c.PutRaw(r.key, r.seed, r.result); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	c2, err := Open(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if c2.Len() != len(rows) {
		t.Fatalf("reloaded Len = %d, want %d", c2.Len(), len(rows))
	}
	for _, r := range rows {
		got, ok, err := c2.GetRaw(r.key, r.seed)
		if err != nil || !ok {
			t.Fatalf("reloaded GetRaw(%.12s) = (%v, %v), want hit", r.key, ok, err)
		}
		if !reflect.DeepEqual(got, r.result) {
			t.Errorf("reloaded row %.12s differs from the computed result", r.key)
		}
	}
	s := c2.Stats()
	if s.DiskHits != uint64(len(rows)) {
		t.Errorf("disk hits = %d, want %d", s.DiskHits, len(rows))
	}
	// The promoted rows now serve from memory.
	if _, ok, _ := c2.GetRaw(rows[0].key, rows[0].seed); !ok {
		t.Fatal("promoted row missed")
	}
	if s := c2.Stats(); s.MemoryHits != 1 {
		t.Errorf("memory hits after promotion = %d, want 1", s.MemoryHits)
	}
}

// TestDiskEvictionKeepsRowsReachable: the memory tier evicting a
// disk-backed row must not lose it — the next GetRaw is a disk hit.
func TestDiskEvictionKeepsRowsReachable(t *testing.T) {
	rows := makeRows(t, 4)
	c, err := Open(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, r := range rows {
		if err := c.PutRaw(r.key, r.seed, r.result); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range rows {
		got, ok, err := c.GetRaw(r.key, r.seed)
		if err != nil || !ok {
			t.Fatalf("GetRaw(%.12s) after eviction = (%v, %v), want disk hit", r.key, ok, err)
		}
		if !reflect.DeepEqual(got, r.result) {
			t.Errorf("row %.12s served from disk differs", r.key)
		}
	}
}

func TestCacheFailsClosed(t *testing.T) {
	rows := makeRows(t, 1)
	dir := t.TempDir()
	c, err := Open(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.PutRaw(rows[0].key, rows[0].seed, rows[0].result); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, journalName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	corrupt := func(name string, mutate func([]byte) []byte) {
		t.Run(name, func(t *testing.T) {
			if err := os.WriteFile(path, mutate(append([]byte(nil), data...)), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := Open(dir, 4); !errors.Is(err, ErrCache) {
				t.Errorf("Open err = %v, want ErrCache", err)
			}
		})
	}
	corrupt("truncated tail", func(b []byte) []byte { return b[:len(b)-1] })
	corrupt("tampered row", func(b []byte) []byte {
		return []byte(strings.Replace(string(b), `"result":{`, `"result":{"bogus":1,`, 1))
	})
	corrupt("version skew", func(b []byte) []byte {
		return []byte(strings.Replace(string(b), `{"version":1,`, `{"version":2,`, 1))
	})
	corrupt("schema skew", func(b []byte) []byte {
		return []byte(strings.Replace(string(b), fmt.Sprintf(`"schema":%d}`, sim.ResultSchemaVersion), `"schema":999}`, 1))
	})
	corrupt("duplicated row", func(b []byte) []byte {
		lines := strings.SplitAfter(string(b), "\n")
		return []byte(string(b) + lines[1])
	})
	corrupt("garbage first line", func(b []byte) []byte {
		lines := strings.SplitAfter(string(b), "\n")
		return []byte("not json\n" + strings.Join(lines[1:], ""))
	})
	corrupt("empty line", func(b []byte) []byte { return append(b, '\n') })
	corrupt("trailing garbage", func(b []byte) []byte {
		return append(b[:len(b)-1], []byte(" extra\n")...)
	})
	corrupt("malformed key", func(b []byte) []byte {
		return []byte(strings.Replace(string(b), `"key":"`, `"key":"zz`, 1))
	})

	// The valid journal those cases are mutations of still opens, and an
	// unreachable directory is an error, not an empty cache.
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	c, err = Open(dir, 4)
	if err != nil {
		t.Fatalf("valid journal rejected: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(filepath.Join(path, "sub"), 4); err == nil {
		t.Error("cache dir below a regular file accepted")
	}
}

// syntheticJournal joins a header and the given row lines into journal
// bytes.
func syntheticJournal(rows ...string) []byte {
	header := fmt.Sprintf(`{"version":1,"schema":%d}`, sim.ResultSchemaVersion)
	return []byte(strings.Join(append([]string{header}, rows...), "\n") + "\n")
}

// syntheticRow is a minimal valid row line whose key repeats c.
func syntheticRow(c string) string {
	return `{"key":"` + strings.Repeat(c, 64) + `","seed":7,"result":{"Alpha":0.3,"Blocks":500}}`
}

// TestDecodeJournalFirstFailingLineWins: the parallel decoder reports the
// first failing line in line order at any worker count — the error the
// line-by-line decoder gives — even when a worker reaches a later bad
// line first.
func TestDecodeJournalFirstFailingLineWins(t *testing.T) {
	malformed := `{"key":"` + strings.Repeat("ab", 32) + `","seed":`
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"duplicate before malformed",
			syntheticJournal(syntheticRow("a"), syntheticRow("b"), syntheticRow("a"),
				syntheticRow("c"), syntheticRow("d"), malformed, syntheticRow("e")),
			fmt.Sprintf("%v: line 4: row aaaaaaaaaaaa duplicated", ErrCache)},
		{"malformed alone",
			syntheticJournal(syntheticRow("a"), syntheticRow("b"), syntheticRow("f"),
				syntheticRow("c"), syntheticRow("d"), malformed, syntheticRow("e")),
			fmt.Sprintf("%v: line 7: unexpected EOF", ErrCache)},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, tc := range cases {
		for _, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			_, err := decodeJournal(tc.data, 8)
			if !errors.Is(err, ErrCache) || err.Error() != tc.want {
				t.Errorf("%s, GOMAXPROCS %d: err = %v, want %q", tc.name, procs, err, tc.want)
			}
		}
	}
}

// TestDecodeJournalWorkerPanic: a panicking decode worker fails Open
// closed with an error wrapping ErrCache (the property FuzzCacheDecode
// holds the decoder to), not with a bare recovered panic.
func TestDecodeJournalWorkerPanic(t *testing.T) {
	defer func(d func([]byte) (*journalRow, error)) { rowDecoder = d }(rowDecoder)
	rowDecoder = func(raw []byte) (*journalRow, error) {
		if strings.Contains(string(raw), strings.Repeat("c", 64)) {
			panic("decoder bug")
		}
		return decodeRow(raw)
	}
	data := syntheticJournal(syntheticRow("a"), syntheticRow("b"), syntheticRow("c"))
	_, err := decodeJournal(data, 8)
	if !errors.Is(err, ErrCache) || !errors.Is(err, parallel.ErrPanic) {
		t.Errorf("decodeJournal err = %v, want ErrCache wrapping the recovered panic", err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, journalName), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, 4); !errors.Is(err, ErrCache) {
		t.Errorf("Open err = %v, want ErrCache", err)
	}
}

// TestDiskKeptWindow: Open keeps the decoded rows of only the newest
// capacity lines. Older rows take the re-read path, which still fails
// closed on a line changed after Open, and each kept row passes to the
// memory tier on its first hit, so once every row has been served the
// index holds no decoded row.
func TestDiskKeptWindow(t *testing.T) {
	rows := makeRows(t, 6)
	dir := t.TempDir()
	c, err := Open(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if err := c.PutRaw(r.key, r.seed, r.result); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	open := func() *Cache {
		c, err := Open(dir, 2)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	hexKey := func(r testRow) string { return hex.EncodeToString(r.key[:]) }

	c = open()
	for i, r := range rows {
		if kept, want := c.index[hexKey(r)].kept != nil, i >= len(rows)-2; kept != want {
			t.Errorf("row %d kept = %v, want %v", i, kept, want)
		}
	}
	// A kept row still answers to the seed check.
	last := rows[len(rows)-1]
	if _, _, err := c.GetRaw(last.key, last.seed+1); !errors.Is(err, ErrCache) {
		t.Errorf("seed-mismatch GetRaw on a kept row err = %v, want ErrCache", err)
	}
	for _, r := range rows {
		got, ok, err := c.GetRaw(r.key, r.seed)
		if err != nil || !ok {
			t.Fatalf("GetRaw(%.12s) = (%v, %v), want disk hit", r.key, ok, err)
		}
		if !reflect.DeepEqual(got, r.result) {
			t.Errorf("row %.12s differs from the computed result", r.key)
		}
	}
	if s := c.Stats(); s.DiskHits != uint64(len(rows)) || s.MemoryHits != 0 || s.Misses != 0 {
		t.Errorf("stats = %+v, want %d disk hits and nothing else", s, len(rows))
	}
	for key, pos := range c.index {
		if pos.kept != nil {
			t.Errorf("row %.12s still held by the index after its hit", key)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// Tamper with an older row's line after Open (same length, so the
	// index's offsets still frame it): its re-read fails closed.
	c = open()
	defer c.Close()
	path := filepath.Join(dir, journalName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	pos := c.index[hexKey(rows[1])]
	if pos.kept != nil {
		t.Fatal("row 1 kept; want it past the window")
	}
	data[pos.off+int64(pos.len)-1] = ' ' // drop the row's closing brace
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.GetRaw(rows[1].key, rows[1].seed); !errors.Is(err, ErrCache) {
		t.Errorf("GetRaw on a row changed after Open err = %v, want ErrCache", err)
	}
}

// TestCachePropertySequence is the satellite property test: any sequence
// of PutRaw / GetRaw / evict (via a tiny capacity) / reload yields rows
// DeepEqual to recomputation — the cache can serve stale nothing, because
// its only failure mode is a miss.
func TestCachePropertySequence(t *testing.T) {
	rows := makeRows(t, 6)
	for _, disk := range []bool{false, true} {
		name := "memory"
		if disk {
			name = "disk"
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			open := func() *Cache {
				if !disk {
					return NewMemory(3) // tiny: forces constant eviction
				}
				c, err := Open(dir, 3)
				if err != nil {
					t.Fatal(err)
				}
				return c
			}
			c := open()
			defer func() { c.Close() }()

			rng := rand.New(rand.NewSource(42))
			put := make(map[jobkey.Key]bool)
			for step := 0; step < 400; step++ {
				r := rows[rng.Intn(len(rows))]
				switch op := rng.Intn(10); {
				case op < 4:
					if err := c.PutRaw(r.key, r.seed, r.result); err != nil {
						t.Fatal(err)
					}
					put[r.key] = true
				case op < 9:
					got, ok, err := c.GetRaw(r.key, r.seed)
					if err != nil {
						t.Fatal(err)
					}
					if ok && !reflect.DeepEqual(got, r.result) {
						t.Fatalf("step %d: row %.12s differs from recomputation", step, r.key)
					}
					if !ok && disk && put[r.key] {
						t.Fatalf("step %d: disk-backed row %.12s lost", step, r.key)
					}
				case disk:
					// Reload: close, reopen, and continue the sequence.
					if err := c.Close(); err != nil {
						t.Fatal(err)
					}
					c = open()
				}
			}
			// Every row ever Put into a disk-backed cache is still exact.
			if disk {
				for _, r := range rows {
					if !put[r.key] {
						continue
					}
					got, ok, err := c.GetRaw(r.key, r.seed)
					if err != nil || !ok {
						t.Fatalf("final GetRaw(%.12s) = (%v, %v), want hit", r.key, ok, err)
					}
					if !reflect.DeepEqual(got, r.result) {
						t.Errorf("final row %.12s differs from recomputation", r.key)
					}
				}
			}
		})
	}
}

// FuzzCacheDecode: the strict decoder never panics, never accepts a
// truncated tail, and only ever fails with ErrCache — the one fuzz target
// for the one on-disk row format.
func FuzzCacheDecode(f *testing.F) {
	header := fmt.Sprintf(`{"version":1,"schema":%d}`, sim.ResultSchemaVersion)
	key := strings.Repeat("ab", 32)
	row := `{"key":"` + key + `","seed":7,"result":{"Alpha":0.3,"Blocks":500}}`
	valid := header + "\n" + row + "\n"
	f.Add([]byte(valid))
	f.Add([]byte(valid[:len(valid)-1]))
	f.Add([]byte(header + "\n"))
	f.Add([]byte(""))
	f.Add([]byte("\n"))
	f.Add([]byte(header + "\n" + row + "\n" + row + "\n"))
	f.Add([]byte(`{"version":1,"schema":999}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		index, err := decodeJournal(data, 1)
		if err != nil {
			if !errors.Is(err, ErrCache) {
				t.Errorf("error %v does not wrap ErrCache", err)
			}
			return
		}
		if len(data) > 0 && data[len(data)-1] != '\n' {
			t.Error("journal without a final newline accepted")
		}
		kept := 0
		for k, pos := range index {
			if pos.kept != nil {
				kept++
			}
			if len(k) != 64 || !isHex(k) {
				t.Errorf("accepted malformed key %q", k)
			}
			if pos.off < 0 || pos.off+int64(pos.len) > int64(len(data)) {
				t.Errorf("row %q indexed outside the journal", k)
			}
		}
		if kept > 1 {
			t.Errorf("kept %d decoded rows, want at most 1", kept)
		}
	})
}
