// Command perfbench is the repository benchmark: three closed-loop
// workloads over the stable, default-path surfaces (experiments.Fig8,
// sim.Runner.Run, resultcache.Open/Close), each op checked for correctness,
// plus a traced mode that replays every layer's public calls and prints the
// per-layer ledger. See README.md for the workloads, the metrics and the
// layer-to-end-to-end map.
//
// Usage (normally through run.py, which builds the binary first):
//
//	perfbench --workload fig8-paper-cold --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the command-line settings of one benchmark process.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	out      string
	commit   string
	scale    scale

	// corruptOp, when non-negative, corrupts the output of that timed op
	// before it is checked (the self-test's proof that checks fail ops).
	// Only the self-test sets it, and a tiny scale; the command line
	// always runs paperScale with nothing corrupted.
	corruptOp int
}

func run(args []string, stdout, stderr io.Writer) int {
	opts, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	rep, err := execute(opts, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opts options
	var trace int
	fs.StringVar(&opts.workload, "workload", "", "workload name: "+fmt.Sprint(workloadNames()))
	fs.Uint64Var(&opts.seed, "seed", 1, "workload seed; every op's inputs derive from it")
	fs.Float64Var(&opts.seconds, "seconds", 15, "how long the timed ops run")
	fs.IntVar(&trace, "trace", 0, "1: traced run printing the per-layer ledger")
	fs.StringVar(&opts.out, "out", filepath.Join(".bench_build", "perfbench"), "directory for cache journals and span files")
	fs.StringVar(&opts.commit, "commit", "unknown", "git commit stamped on the result")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	if fs.NArg() != 0 {
		return options{}, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if _, ok := workloads[opts.workload]; !ok {
		return options{}, fmt.Errorf("unknown workload %q (have %v)", opts.workload, workloadNames())
	}
	if trace != 0 && trace != 1 {
		return options{}, errors.New("--trace must be 0 or 1")
	}
	opts.trace = trace == 1
	if !(opts.seconds > 0) {
		return options{}, errors.New("--seconds must be positive")
	}
	opts.scale = paperScale
	opts.corruptOp = -1
	return opts, nil
}

// report is the final JSON line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metric is one named value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func execute(opts options, stdout, stderr io.Writer) (report, error) {
	if err := os.MkdirAll(opts.out, 0o755); err != nil {
		return report{}, fmt.Errorf("creating output directory: %w", err)
	}
	b, err := newBench(opts, stderr)
	if err != nil {
		return report{}, err
	}
	defer b.cleanup()
	st := b.stamp()
	stampLine, err := json.Marshal(st)
	if err != nil {
		return report{}, err
	}
	fmt.Fprintf(stdout, "# perfbench workload=%s seed=%d seconds=%g trace=%t\n",
		opts.workload, opts.seed, opts.seconds, opts.trace)
	fmt.Fprintf(stdout, "# stamp %s\n", stampLine)
	w := workloads[opts.workload]
	fmt.Fprintf(stdout, "# why: %s\n", w.why)

	if opts.trace {
		return traceWorkload(b, w, stdout)
	}
	m, err := measure(b, w)
	if err != nil {
		return report{}, err
	}
	return m.report(stdout), nil
}

// workers is the engine parallelism every workload uses: one worker per
// CPU the process may run on, never more than nproc.
func workers() int {
	n := runtime.NumCPU()
	if g := runtime.GOMAXPROCS(0); g < n {
		n = g
	}
	return max(n, 1)
}
