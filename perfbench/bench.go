package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"github.com/ethselfish/ethselfish/internal/experiments"
	"github.com/ethselfish/ethselfish/internal/sim"
)

// scale sizes every workload's inputs.
type scale struct {
	// Runs and Blocks size the Fig. 8 sweep: runs per alpha point and
	// block events per run.
	Runs, Blocks int

	// ChainBlocks is the length of the chain-1m-eip100 run.
	ChainBlocks int

	// Setups is how many times a run sets its workload up; setup_s is the
	// median.
	Setups int

	// Fig8T is the Fig. 8 check's bound on |t| (see checkFig8Rows): the
	// upper quantile of Student's t with Runs-1 degrees of freedom at
	// tail probability fig8FalseFailure/(2*18), one share per row and
	// tail of the 18-point sweep.
	Fig8T float64
}

// paperScale is the source paper's Fig. 8 scale (10 runs x 100k blocks per
// alpha) and a 1M-block long-horizon run. The benchmark always runs it.
var paperScale = scale{Runs: 10, Blocks: 100000, ChainBlocks: 1000000, Setups: 3,
	Fig8T: 16.271033} // t quantile, 9 degrees of freedom, tail 1e-6/36

// tinyScale keeps every code path and metric at a size the self-test runs
// in seconds.
var tinyScale = scale{Runs: 3, Blocks: 3000, ChainBlocks: 30000, Setups: 2,
	Fig8T: 4242.6405} // t quantile, 2 degrees of freedom, tail 1e-6/36

// bench is the state shared by one benchmark process.
type bench struct {
	opts    options
	scale   scale
	workers int
	log     io.Writer

	// tmp holds this process's result-cache journals; removed at exit.
	tmp  string
	dirs int

	// warm and runs are the set-up state of fig8-paper-warm and
	// chain-1m-eip100.
	warm warmState
	runs chainState
}

func newBench(opts options, log io.Writer) (*bench, error) {
	tmp, err := os.MkdirTemp(opts.out, "run-")
	if err != nil {
		return nil, fmt.Errorf("creating journal directory: %w", err)
	}
	return &bench{opts: opts, scale: opts.scale, workers: workers(), log: log, tmp: tmp}, nil
}

func (b *bench) cleanup() {
	if err := os.RemoveAll(b.tmp); err != nil {
		fmt.Fprintln(b.log, "perfbench: removing journals:", err)
	}
}

// freshDir returns a new, empty directory for one result-cache journal.
func (b *bench) freshDir() string {
	b.dirs++
	return filepath.Join(b.tmp, fmt.Sprintf("cache-%d", b.dirs))
}

// seedFor derives the seed of one op (or one set-up) from the workload
// seed: splitmix64 over (workload seed, purpose, index), so every op gets
// fresh, reproducible inputs.
func (b *bench) seedFor(purpose string, k int) uint64 {
	x := b.opts.seed
	for _, c := range []byte(purpose) {
		x = splitmix64(x ^ uint64(c))
	}
	return splitmix64(x ^ uint64(k))
}

func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// stamp identifies the machine, toolchain and inputs a result came from.
type stamp struct {
	Commit       string `json:"commit"`
	CPU          string `json:"cpu"`
	NumCPU       int    `json:"nproc"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	GoVersion    string `json:"go"`
	Workers      int    `json:"workers"`
	WorkloadSeed uint64 `json:"workload_seed"`
}

func (b *bench) stamp() stamp {
	return stamp{
		Commit:       b.opts.commit,
		CPU:          cpuModel(),
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		Workers:      b.workers,
		WorkloadSeed: b.opts.seed,
	}
}

// cpuModel reads the CPU model name from /proc/cpuinfo (Linux); elsewhere
// it reports the architecture.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
			}
		}
	}
	return runtime.GOARCH
}

// workload is one closed-loop benchmark workload. setup builds the state
// the ops run against (the last call wins) and includes one untimed
// warm-up op; op runs the k-th timed op and returns its checked
// outcome.
type workload struct {
	name  string
	why   string
	setup func(b *bench, i int) error
	op    func(b *bench, k int) (outcome, error)
}

// outcome is what one op produced: its simulated event count and a check
// of its output, run after the timer stops. check returns the failed
// conditions (none: the op is correct).
type outcome struct {
	events int64
	check  func() []string
	// rows is a Fig. 8 op's output, run a chain op's.
	rows []experiments.Fig8Row
	run  *sim.Result
	// corrupt damages the op's output so check must fail (self-test).
	corrupt func()
}

var workloads = map[string]workload{
	fig8Cold.name:  fig8Cold,
	fig8Warm.name:  fig8Warm,
	chainWork.name: chainWork,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}

// opSample is one timed op.
type opSample struct {
	seconds     float64
	events      int64
	allocBytes  uint64
	allocs      uint64
	retainedMem uint64
	failed      bool
}

// measurement is one untraced benchmark run.
type measurement struct {
	setups []float64
	ops    []opSample
}

// measure sets the workload up Setups times, then runs timed ops one after
// another until the run's seconds have elapsed. Each op starts on a freshly
// collected heap; its allocations come from runtime.MemStats deltas and
// its retained heap from HeapAlloc after a collection, both outside the
// timed region.
func measure(b *bench, w workload) (measurement, error) {
	var m measurement
	for i := 0; i < b.scale.Setups; i++ {
		start := time.Now()
		if err := w.setup(b, i); err != nil {
			return m, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		m.setups = append(m.setups, time.Since(start).Seconds())
	}
	begin := time.Now()
	for k := 0; k == 0 || time.Since(begin).Seconds() < b.opts.seconds; k++ {
		s, err := timedOp(b, w, k)
		if err != nil {
			return m, err
		}
		m.ops = append(m.ops, s)
	}
	return m, nil
}

// timedOp runs and checks one op.
func timedOp(b *bench, w workload, k int) (opSample, error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	out, err := w.op(b, k)
	elapsed := time.Since(start).Seconds()
	runtime.ReadMemStats(&after)
	s := opSample{
		seconds:    elapsed,
		allocBytes: after.TotalAlloc - before.TotalAlloc,
		allocs:     after.Mallocs - before.Mallocs,
	}
	if err != nil {
		fmt.Fprintf(b.log, "perfbench: %s op %d failed: %v\n", w.name, k, err)
		s.failed = true
		return s, nil
	}
	s.events = out.events
	if k == b.opts.corruptOp && out.corrupt != nil {
		out.corrupt()
	}
	if bad := out.check(); len(bad) > 0 {
		fmt.Fprintf(b.log, "perfbench: %s op %d output check failed: %s\n", w.name, k, strings.Join(bad, "; "))
		s.failed = true
	}
	out = outcome{}
	runtime.GC()
	var held runtime.MemStats
	runtime.ReadMemStats(&held)
	s.retainedMem = held.HeapAlloc
	return s, nil
}

// report prints every end-to-end metric by name and unit, and returns the
// final JSON line's contents. The JSON carries the metrics BENCHMARK.json
// declares (present and non-zero on every workload); the per-workload
// extras — op_s_p90 (runs of at least 100 ops), ns_per_event (simulating
// workloads) and fail_ratio — are printed above it.
func (m measurement) report(out io.Writer) report {
	col := func(f func(opSample) float64) []float64 {
		xs := make([]float64, len(m.ops))
		for i, s := range m.ops {
			xs[i] = f(s)
		}
		return xs
	}
	failed := 0
	for _, s := range m.ops {
		if s.failed {
			failed++
		}
	}
	secs := col(func(s opSample) float64 { return s.seconds })
	metrics := map[string]metric{
		"setup_s":             {median(m.setups), "s"},
		"op_s":                {median(secs), "s"},
		"alloc_bytes_per_op":  {median(col(func(s opSample) float64 { return float64(s.allocBytes) })), "bytes"},
		"allocs_per_op":       {median(col(func(s opSample) float64 { return float64(s.allocs) })), "count"},
		"retained_heap_bytes": {median(col(func(s opSample) float64 { return float64(s.retainedMem) })), "bytes"},
	}
	for _, name := range endToEndNames {
		fmt.Fprintf(out, "metric %-20s %16.6g %s\n", name, metrics[name].Value, metrics[name].Unit)
	}
	if len(secs) >= 100 {
		fmt.Fprintf(out, "metric %-20s %16.6g s\n", "op_s_p90", quantile(secs, 0.9))
	} else {
		fmt.Fprintf(out, "metric %-20s %16s (only %d ops; needs 100)\n", "op_s_p90", "n/a", len(secs))
	}
	if m.ops[0].events > 0 {
		nsPerEvent := col(func(s opSample) float64 { return s.seconds * 1e9 / float64(max(s.events, 1)) })
		fmt.Fprintf(out, "metric %-20s %16.6g ns\n", "ns_per_event", median(nsPerEvent))
	} else {
		fmt.Fprintf(out, "metric %-20s %16s (no simulated events)\n", "ns_per_event", "n/a")
	}
	fmt.Fprintf(out, "metric %-20s %16.6g ratio (%d failed of %d ops)\n", "fail_ratio",
		float64(failed)/float64(len(m.ops)), failed, len(m.ops))
	return report{Correct: failed == 0, Attempted: len(m.ops), Failed: failed, Metrics: metrics}
}

// endToEndNames lists the end-to-end metrics of BENCHMARK.json, in print
// order.
var endToEndNames = []string{"setup_s", "op_s", "alloc_bytes_per_op", "allocs_per_op", "retained_heap_bytes"}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the linear-interpolation sample quantile (xs unmodified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}
