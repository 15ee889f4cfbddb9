package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/ethselfish/ethselfish/internal/jobkey"
	"github.com/ethselfish/ethselfish/internal/mining"
	"github.com/ethselfish/ethselfish/internal/resultcache"
	"github.com/ethselfish/ethselfish/internal/sim"
)

// TestCacheCrossSweepReuse is the acceptance test for partial-grid reuse:
// a Fig. 8 point cached by one invocation is served — not recomputed — to
// a best-response sweep that contains the same (alpha, gamma) point,
// because both resolve to the same canonical content address (Fig. 8's
// implicit Algorithm 1 and the search's explicit [algorithm1] candidate
// canonicalize identically).
func TestCacheCrossSweepReuse(t *testing.T) {
	opts := Options{Runs: 2, Blocks: 2000, Seed: 7, Parallelism: 2}
	grid := sweep(fig8AlphaStart, fig8AlphaMax, fig8AlphaStep)
	alphas := []float64{grid[7], grid[11]} // exact Fig. 8 grid values
	gammas := []float64{fig8Gamma}
	specs := []sim.StrategySpec{sim.MustStrategySpec("algorithm1")}

	fig8Want, err := Fig8(opts)
	if err != nil {
		t.Fatal(err)
	}
	brWant, err := bestResponse(opts, gammas, alphas, specs)
	if err != nil {
		t.Fatal(err)
	}

	cache := resultcache.NewMemory(0)
	copts := opts
	copts.Cache = cache
	fig8Got, err := Fig8(copts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fig8Got, fig8Want) {
		t.Fatal("cached Fig8 differs from uncached Fig8")
	}
	after := cache.Stats()
	if want := uint64(len(grid) * opts.Runs); after.Stores != want {
		t.Fatalf("Fig8 stored %d rows, want %d", after.Stores, want)
	}

	brGot, err := bestResponse(copts, gammas, alphas, specs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(brGot, brWant) {
		t.Error("best-response sweep served from the Fig8 cache differs from recomputation")
	}
	s := cache.Stats()
	if s.Misses != after.Misses || s.Stores != after.Stores {
		t.Errorf("best-response recomputed cached Fig8 points: misses %d -> %d, stores %d -> %d",
			after.Misses, s.Misses, after.Stores, s.Stores)
	}
	if got, want := s.Hits()-after.Hits(), uint64(len(alphas)*len(gammas)*opts.Runs); got != want {
		t.Errorf("best-response took %d cache hits, want %d", got, want)
	}
}

// TestCacheWarmRerunBitIdentical: rerunning a sweep against a warm cache —
// same process or a fresh one over the disk journal — serves every row
// from the cache and reproduces the Series bit for bit.
func TestCacheWarmRerunBitIdentical(t *testing.T) {
	opts := Options{Runs: 2, Blocks: 2000, Seed: 5, Parallelism: 4}
	want, err := PoolWars(opts)
	if err != nil {
		t.Fatal(err)
	}
	rows := uint64(len(want.Rows) * opts.Runs)

	dir := t.TempDir()
	c1, err := resultcache.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	copts := opts
	copts.Cache = c1
	got, err := PoolWars(copts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("cold cached PoolWars differs from uncached")
	}
	if s := c1.Stats(); s.Misses != rows || s.Stores != rows {
		t.Fatalf("cold run stats = %+v, want %d misses and stores", s, rows)
	}

	warm, err := PoolWars(copts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(warm, want) {
		t.Error("warm rerun differs from cold run")
	}
	if s := c1.Stats(); s.MemoryHits != rows || s.Misses != rows {
		t.Errorf("warm rerun stats = %+v, want %d memory hits and no new misses", s, rows)
	}
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}

	// A fresh invocation over the same cache directory serves the whole
	// sweep from disk.
	c2, err := resultcache.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	copts.Cache = c2
	reloaded, err := PoolWars(copts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(reloaded, want) {
		t.Error("disk-warm rerun differs from cold run")
	}
	if s := c2.Stats(); s.DiskHits != rows || s.Misses != 0 {
		t.Errorf("disk-warm stats = %+v, want %d disk hits and 0 misses", s, rows)
	}
}

// TestCacheDedupeWithinSweep: jobs resolving to the same content address
// within one sweep are simulated once — duplicates never even consult the
// cache; the representative's rows are scattered to them.
func TestCacheDedupeWithinSweep(t *testing.T) {
	opts := Options{Runs: 2, Blocks: 1000, Seed: 3, Parallelism: 2}
	job := simJob{alpha: 0.3, build: func(*mining.Population) sim.Config {
		return sim.Config{Gamma: 0.5}
	}}

	single, err := runSimGrid(opts, []simJob{job})
	if err != nil {
		t.Fatal(err)
	}

	cache := resultcache.NewMemory(0)
	opts.Cache = cache
	series, err := runSimGrid(opts, []simJob{job, job, job})
	if err != nil {
		t.Fatal(err)
	}
	for j := 1; j < len(series); j++ {
		if !reflect.DeepEqual(series[j], series[0]) {
			t.Fatalf("duplicate job %d differs from its representative", j)
		}
	}
	if !reflect.DeepEqual(series[0].Runs, single[0].Runs) {
		t.Error("deduplicated sweep differs from a single-job sweep")
	}
	s := cache.Stats()
	if s.Misses != uint64(opts.Runs) || s.Stores != uint64(opts.Runs) || s.Hits() != 0 {
		t.Errorf("stats = %+v: want exactly one compute per unique row (%d misses, %d stores, 0 hits)",
			s, opts.Runs, opts.Runs)
	}
}

// TestPrecisionCacheReuse: the adaptive precision study consults the cache
// per run; a repeat of the same study against a warm cache computes
// nothing new and reproduces the result exactly.
func TestPrecisionCacheReuse(t *testing.T) {
	opts := Options{Blocks: 2000, Seed: 11}
	pc := PrecisionConfig{
		Alphas:       []float64{0.25},
		TargetRadius: 0.01,
		MaxRuns:      8,
		BatchRuns:    4,
	}
	want, err := Precision(opts, pc)
	if err != nil {
		t.Fatal(err)
	}

	cache := resultcache.NewMemory(0)
	copts := opts
	copts.Cache = cache
	got, err := Precision(copts, pc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("cached precision study differs from uncached")
	}
	misses := cache.Stats().Misses
	again, err := Precision(copts, pc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, want) {
		t.Error("warm precision study differs from cold study")
	}
	if s := cache.Stats(); s.Misses != misses {
		t.Errorf("warm precision study computed %d new rows, want 0", s.Misses-misses)
	}
}

func testJobs() []simJob {
	alphas := []float64{0.2, 0.35}
	jobs := make([]simJob, len(alphas))
	for i, alpha := range alphas {
		jobs[i] = simJob{alpha: alpha, build: func(*mining.Population) sim.Config {
			return sim.Config{Gamma: 0.5}
		}}
	}
	return jobs
}

// journalPath is the disk journal inside a cache directory.
func journalPath(dir string) string { return filepath.Join(dir, "results.jsonl") }

func journalLines(t *testing.T, dir string) []string {
	t.Helper()
	data, err := os.ReadFile(journalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 || data[len(data)-1] != '\n' {
		t.Fatalf("journal in %s does not end with a newline", dir)
	}
	return strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
}

// runCached runs one sweep against a fresh handle on the disk cache in dir
// and closes it again, as one invocation of the CLI would.
func runCached(t *testing.T, opts Options, jobs []simJob, dir string) ([]sim.Series, resultcache.Stats, error) {
	t.Helper()
	c, err := resultcache.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	opts.Cache = c
	series, err := runSimGrid(opts, jobs)
	if cerr := c.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	return series, c.Stats(), err
}

// TestCacheResumeBitIdentical is the golden resume test: a sweep cached to
// disk, cut back to a prefix of its rows (as an interrupt would leave the
// journal), then rerun against the same directory, produces output
// bit-identical to an uninterrupted sweep — and the journal converges to
// the same complete row set.
func TestCacheResumeBitIdentical(t *testing.T) {
	opts := Options{Runs: 3, Blocks: 2000, Seed: 11, Parallelism: 4}
	jobs := testJobs()
	want, err := runSimGrid(opts, jobs)
	if err != nil {
		t.Fatal(err)
	}

	full := filepath.Join(t.TempDir(), "full")
	got, _, err := runCached(t, opts, jobs, full)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("cached sweep differs from plain sweep")
	}
	// 1 header + 2 jobs * 3 runs rows.
	lines := journalLines(t, full)
	const wantLines = 1 + 2*3
	if len(lines) != wantLines {
		t.Fatalf("journal has %d lines, want %d", len(lines), wantLines)
	}

	// Interrupt mid-sweep: keep the header and the first two completed
	// rows.
	partial := filepath.Join(t.TempDir(), "interrupted")
	if err := os.MkdirAll(partial, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(journalPath(partial), []byte(strings.Join(lines[:3], "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	resumed, s, err := runCached(t, opts, jobs, partial)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resumed, want) {
		t.Error("resumed sweep differs from uninterrupted sweep")
	}
	if s.DiskHits != 2 || s.Misses != wantLines-3 {
		t.Errorf("resume stats = %+v, want 2 disk hits and %d misses", s, wantLines-3)
	}
	if got := len(journalLines(t, partial)); got != wantLines {
		t.Errorf("resumed journal has %d lines, want %d", got, wantLines)
	}

	// A sweep replayed against a complete journal recomputes nothing and
	// appends nothing.
	before, err := os.ReadFile(journalPath(full))
	if err != nil {
		t.Fatal(err)
	}
	replayed, s, err := runCached(t, opts, jobs, full)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(replayed, want) {
		t.Error("fully cached sweep differs from plain sweep")
	}
	if s.Misses != 0 || s.Stores != 0 {
		t.Errorf("warm replay stats = %+v, want no misses or stores", s)
	}
	after, err := os.ReadFile(journalPath(full))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Error("replaying a complete journal modified the file")
	}
}

// TestCacheCancelThenResume interrupts a real sweep via context
// cancellation, then resumes it from the cache journal the interrupt left
// behind; the resumed sweep must match an uninterrupted one bit for bit.
func TestCacheCancelThenResume(t *testing.T) {
	opts := Options{Runs: 4, Blocks: 20000, Seed: 3, Parallelism: 2}
	jobs := testJobs()
	want, err := runSimGrid(opts, jobs)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	interrupted := opts
	interrupted.Ctx = ctx
	if _, _, err := runCached(t, interrupted, jobs, dir); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("interrupted sweep err = %v, want nil or context.DeadlineExceeded", err)
	}

	// runCached fails the test if the journal a graceful cancellation
	// leaves behind does not reopen cleanly.
	resumed, _, err := runCached(t, opts, jobs, dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resumed, want) {
		t.Error("sweep resumed after cancellation differs from uninterrupted sweep")
	}
}

// TestCacheSeedMismatchRejected: a cached row whose seed does not match the
// seed the sweep derives for its address poisons the resume with
// resultcache.ErrCache (it indicates hash collision or tampering), wrapped
// in a JobError naming the coordinate.
func TestCacheSeedMismatchRejected(t *testing.T) {
	opts := Options{Runs: 2, Blocks: 1000, Seed: 7, Parallelism: 1}
	jobs := testJobs()
	dir := t.TempDir()
	if _, _, err := runCached(t, opts, jobs, dir); err != nil {
		t.Fatal(err)
	}

	// Tamper with the last row's seed; with one worker that is row (1,1).
	lines := journalLines(t, dir)
	var row struct {
		Key    string          `json:"key"`
		Seed   uint64          `json:"seed"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &row); err != nil {
		t.Fatalf("last journal line is not a row: %v", err)
	}
	row.Seed++
	tampered, err := json.Marshal(row)
	if err != nil {
		t.Fatal(err)
	}
	lines[len(lines)-1] = string(tampered)
	if err := os.WriteFile(journalPath(dir), []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	_, _, err = runCached(t, opts, jobs, dir)
	if !errors.Is(err, resultcache.ErrCache) {
		t.Fatalf("err = %v, want resultcache.ErrCache", err)
	}
	var je *JobError
	if !errors.As(err, &je) {
		t.Fatalf("err = %v (%T), want *JobError", err, err)
	}
	if je.Point != 1 || je.Run != 1 {
		t.Errorf("JobError names (%d,%d), want the tampered row (1,1)", je.Point, je.Run)
	}
}

// TestSweepAddressSensitivity: the set of row addresses a sweep resolves to
// separates sweeps whose rows could differ and unifies repeats of the same
// sweep, which is what makes a rerun against the same cache a resume.
// Per-field identity sensitivity lives in internal/jobkey; this pins the
// sweep-level layer the engine adds on top.
func TestSweepAddressSensitivity(t *testing.T) {
	opts := Options{Runs: 3, Blocks: 2000, Seed: 11}
	gammaJobs := func(gamma float64, anti bool) []simJob {
		alphas := []float64{0.2, 0.35}
		jobs := make([]simJob, len(alphas))
		for i, alpha := range alphas {
			jobs[i] = simJob{alpha: alpha, build: func(*mining.Population) sim.Config {
				return sim.Config{Gamma: gamma, Antithetic: anti}
			}}
		}
		return jobs
	}
	addrsOf := func(o Options, js []simJob) map[jobkey.Key]bool {
		t.Helper()
		_, keys, seedBases, err := resolveJobs(o, js)
		if err != nil {
			t.Fatal(err)
		}
		_, addrs := rowAddresses(o.Runs, keys, seedBases)
		set := make(map[jobkey.Key]bool, len(addrs))
		for _, a := range addrs {
			set[a] = true
		}
		return set
	}
	overlaps := func(a, b map[jobkey.Key]bool) bool {
		for k := range a {
			if b[k] {
				return true
			}
		}
		return false
	}

	base := addrsOf(opts, gammaJobs(0.5, false))
	if len(base) != 2*3 {
		t.Fatalf("sweep resolves to %d distinct rows, want 6", len(base))
	}
	if again := addrsOf(opts, gammaJobs(0.5, false)); !reflect.DeepEqual(again, base) {
		t.Error("identical sweeps address different rows")
	}

	// Everything that can change a row must move every address, or a
	// rerun would be served rows of a different sweep.
	seed := opts
	seed.Seed = 12
	if overlaps(addrsOf(seed, gammaJobs(0.5, false)), base) {
		t.Error("seed: rows still shared")
	}
	blocks := opts
	blocks.Blocks = 4000
	if overlaps(addrsOf(blocks, gammaJobs(0.5, false)), base) {
		t.Error("blocks: rows still shared")
	}
	if overlaps(addrsOf(opts, gammaJobs(0.6, false)), base) {
		t.Error("gamma: rows still shared")
	}

	// Engine-internal knobs that never change results must not change the
	// addresses either, or every resume with different parallelism would
	// recompute from scratch.
	par := opts
	par.Parallelism = 7
	par.Audit = sim.AuditConfig{Enabled: true}
	if !reflect.DeepEqual(addrsOf(par, gammaJobs(0.5, false)), base) {
		t.Error("parallelism/audit changed the row addresses")
	}

	// The statistical modes change the draws a run consumes, so each must
	// separate the sweep.
	ff := opts
	ff.FastForward = true
	ffAddrs := addrsOf(ff, gammaJobs(0.5, false))
	if overlaps(ffAddrs, base) {
		t.Error("fast-forward mode shares rows with the plain sweep")
	}
	antiAddrs := addrsOf(opts, gammaJobs(0.5, true))
	if overlaps(antiAddrs, base) || overlaps(antiAddrs, ffAddrs) {
		t.Error("antithetic mode does not get its own rows")
	}

	// Rows address runs, not sweeps: more runs extend the sweep, so a
	// rerun with a higher -runs reuses every earlier row.
	runs := opts
	runs.Runs = 4
	more := addrsOf(runs, gammaJobs(0.5, false))
	if len(more) != 2*4 {
		t.Fatalf("runs=4 sweep resolves to %d distinct rows, want 8", len(more))
	}
	for k := range base {
		if !more[k] {
			t.Fatalf("runs=4 sweep lacks runs=3 row %.12s", k)
		}
	}
}
