// Command ethbench runs the repository's performance-tracking workloads
// and emits machine-readable results, one JSON object per benchmark, as a
// single JSON array on stdout (the BENCH_*.json trajectory format). The
// workloads and their output checks live in internal/benchwork, which the
// root package's BenchmarkWorkloads also runs; a workload whose output
// check fails makes ethbench exit non-zero.
//
// Usage:
//
//	ethbench [flags]
//
// Flags:
//
//	-filter S        run only benchmarks whose name contains S
//	-parallel N      experiment engine workers (default 0: one per CPU)
//	-list            print benchmark names and exit
//	-baseline FILE   compare against a saved JSON run instead of printing
//	                 JSON: print per-benchmark deltas (ns/op, bytes/op,
//	                 allocs/op) and exit non-zero on a >20% regression in
//	                 any of the three
//	-record FILE     append this run as a dated entry to a JSON history
//	                 file (the BENCH_HISTORY.json trajectory), in addition
//	                 to the normal stdout output
//	-cpuprofile FILE write a CPU profile covering the benchmark runs
//	-memprofile FILE write a heap profile taken after the benchmark runs
//
// Each result records iterations, ns/op, bytes/op and allocs/op as measured
// by testing.Benchmark, plus the parallelism and GOMAXPROCS in force, so
// trajectories from different machines stay comparable. Simulator
// workloads also record ns_per_block: ns/op over the block events one op
// simulates. The precision-*
// benchmarks report time-to-target-precision: one op is an adaptive study
// that simulates until the pool-revenue confidence interval closes under
// its target half-width, so their ns/op is directly the wall-clock cost of
// a fixed statistical precision under each estimator.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"github.com/ethselfish/ethselfish/internal/benchwork"
)

// Result is one benchmark measurement in the emitted JSON array.
type Result struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// NsPerBlock is ns/op over the block events one op simulates, set for
	// the simulator workloads and omitted for sweeps.
	NsPerBlock  float64 `json:"ns_per_block,omitempty"`
	Parallelism int     `json:"parallelism"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
}

func main() {
	// testing.Benchmark reports a failed output check through b.Fatal,
	// which needs the testing package's flags registered.
	testing.Init()
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ethbench:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("ethbench", flag.ContinueOnError)
	var (
		filter     = fs.String("filter", "", "run only benchmarks whose name contains this substring")
		parallel   = fs.Int("parallel", 0, "experiment engine workers (0: one per CPU)")
		list       = fs.Bool("list", false, "print benchmark names and exit")
		baseline   = fs.String("baseline", "", "compare against this saved JSON run and fail on >20% regression")
		record     = fs.String("record", "", "append this run as a dated entry to this JSON history file")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile of the benchmark runs to this file")
		memprofile = fs.String("memprofile", "", "write a post-run heap profile to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fmt.Errorf("creating CPU profile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("starting CPU profile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "ethbench: creating heap profile:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "ethbench: writing heap profile:", err)
			}
		}()
	}

	var results []Result
	for _, work := range benchwork.Workloads {
		if !strings.Contains(work.Name, *filter) {
			continue
		}
		if *list {
			if _, err := fmt.Fprintln(w, work.Name); err != nil {
				return err
			}
			continue
		}
		r := testing.Benchmark(func(b *testing.B) { work.Run(b, *parallel) })
		if r.N == 0 {
			return fmt.Errorf("benchmark %s failed (`go test -run=NONE -bench='Workloads/%s$' .` shows why)", work.Name, work.Name)
		}
		results = append(results, newResult(work.Name, r, *parallel))
	}
	if *list {
		return nil
	}
	if results == nil {
		return fmt.Errorf("no benchmark matches filter %q", *filter)
	}
	if *record != "" {
		if err := appendHistory(*record, results); err != nil {
			return err
		}
	}
	if *baseline != "" {
		return compareBaseline(w, *baseline, results)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(results)
}

// newResult converts one testing.Benchmark measurement into its JSON row.
func newResult(name string, r testing.BenchmarkResult, parallel int) Result {
	// A zero -parallel flag means one worker per CPU; record the resolved
	// count so history entries from different machines (and flag
	// spellings of the same setup) stay comparable.
	if parallel == 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	res := Result{
		Name:        name,
		Iterations:  r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
		Parallelism: parallel,
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
	}
	if blocks := r.Extra[benchwork.BlocksMetric]; blocks > 0 {
		res.NsPerBlock = res.NsPerOp / blocks
	}
	return res
}

// historyEntry is one dated run in the benchmark history file: the full
// result set plus enough environment to compare rows honestly.
type historyEntry struct {
	Date      string   `json:"date"`
	GoVersion string   `json:"go_version"`
	Results   []Result `json:"results"`
}

// appendHistory appends this run as a dated entry to the JSON history at
// path (an array of entries, created on first use). The file is rewritten
// whole — history files are small and the rewrite keeps them valid JSON
// rather than a fragile append format.
func appendHistory(path string, results []Result) error {
	var history []historyEntry
	raw, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(raw, &history); err != nil {
			return fmt.Errorf("parsing history %s: %w", path, err)
		}
	case os.IsNotExist(err):
	default:
		return fmt.Errorf("reading history: %w", err)
	}
	history = append(history, historyEntry{
		Date:      time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		Results:   results,
	})
	out, err := json.MarshalIndent(history, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding history: %w", err)
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// regressionLimit is the tolerated relative increase in ns/op, bytes/op, or
// allocs/op before the compare mode fails.
const regressionLimit = 0.20

// compareBaseline prints per-benchmark deltas against a saved JSON run and
// returns an error (non-zero exit) if any shared benchmark regressed by
// more than regressionLimit in ns/op, bytes/op, or allocs/op. Gating memory
// alongside time keeps the streaming-settlement footprint honest: a change
// that quietly re-grows per-op allocations fails here even when ns/op holds.
func compareBaseline(w io.Writer, path string, results []Result) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("reading baseline: %w", err)
	}
	var base []Result
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("parsing baseline %s: %w", path, err)
	}
	baseByName := make(map[string]Result, len(base))
	for _, r := range base {
		baseByName[r.Name] = r
	}

	var regressions []string
	fmt.Fprintf(w, "%-32s %14s %14s %8s %12s %12s %8s %10s %10s %8s\n",
		"benchmark", "ns/op(base)", "ns/op(new)", "delta", "bytes(b)", "bytes(n)", "delta", "allocs(b)", "allocs(n)", "delta")
	for _, r := range results {
		b, ok := baseByName[r.Name]
		if !ok {
			fmt.Fprintf(w, "%-32s %14s %14.0f %8s %12s %12d %8s %10s %10d %8s\n",
				r.Name, "-", r.NsPerOp, "new", "-", r.BytesPerOp, "new", "-", r.AllocsPerOp, "new")
			continue
		}
		nsDelta := relativeDelta(b.NsPerOp, r.NsPerOp)
		bytesDelta := relativeDelta(float64(b.BytesPerOp), float64(r.BytesPerOp))
		allocDelta := relativeDelta(float64(b.AllocsPerOp), float64(r.AllocsPerOp))
		fmt.Fprintf(w, "%-32s %14.0f %14.0f %+7.1f%% %12d %12d %+7.1f%% %10d %10d %+7.1f%%\n",
			r.Name, b.NsPerOp, r.NsPerOp, 100*nsDelta,
			b.BytesPerOp, r.BytesPerOp, 100*bytesDelta,
			b.AllocsPerOp, r.AllocsPerOp, 100*allocDelta)
		if nsDelta > regressionLimit {
			regressions = append(regressions,
				fmt.Sprintf("%s: ns/op %+.1f%%", r.Name, 100*nsDelta))
		}
		if bytesDelta > regressionLimit {
			regressions = append(regressions,
				fmt.Sprintf("%s: bytes/op %+.1f%%", r.Name, 100*bytesDelta))
		}
		if allocDelta > regressionLimit {
			regressions = append(regressions,
				fmt.Sprintf("%s: allocs/op %+.1f%%", r.Name, 100*allocDelta))
		}
	}
	if len(regressions) > 0 {
		return fmt.Errorf("regressions over %.0f%%: %s",
			100*regressionLimit, strings.Join(regressions, "; "))
	}
	return nil
}

// relativeDelta returns (new-base)/base, treating a zero base as no change
// unless the new value is positive (then it is an unbounded regression only
// if the metric grew, reported as +100%).
func relativeDelta(base, new float64) float64 {
	if base == 0 {
		if new == 0 {
			return 0
		}
		return 1
	}
	return (new - base) / base
}
