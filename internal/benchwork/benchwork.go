// Package benchwork is the repository's table of benchmark workloads. The
// root package's BenchmarkWorkloads (`go test -bench=Workloads`) and
// cmd/ethbench both iterate Workloads, so each workload's config and its
// output check are written once, and a workload whose output is wrong fails
// both harnesses instead of reporting a timing.
//
// The table covers the paper's sweeps at reduced effort
// (experiments.Quick), single simulator runs across the engine's modes, the
// result cache's cold, warm and disk tiers, the precision study under each
// estimator, and the analytic building blocks. Simulator workloads report
// their block events per op under BlocksMetric, from which ethbench derives
// ns per block event.
//
// Names are stable: BENCH_HISTORY.json, saved baselines and the Makefile's
// BENCH_GATE_FILTERS select workloads by name substring.
package benchwork

import (
	"errors"
	"fmt"
	"testing"

	"github.com/ethselfish/ethselfish"
	"github.com/ethselfish/ethselfish/internal/core"
	"github.com/ethselfish/ethselfish/internal/difficulty"
	"github.com/ethselfish/ethselfish/internal/experiments"
	"github.com/ethselfish/ethselfish/internal/mining"
	"github.com/ethselfish/ethselfish/internal/resultcache"
	"github.com/ethselfish/ethselfish/internal/rewards"
	"github.com/ethselfish/ethselfish/internal/sim"
	"github.com/ethselfish/ethselfish/internal/table"
)

// Workload is one named benchmark. Run executes b.N ops and fails b when an
// op's output is wrong; parallel is the experiment engine's worker count
// (0: one per CPU).
type Workload struct {
	Name string
	Run  func(b *testing.B, parallel int)
}

// BlocksMetric is the b.ReportMetric unit under which simulator workloads
// report the block events one op simulates.
const BlocksMetric = "blocks/op"

// Workloads is the table, in ethbench's output order.
var Workloads = []Workload{
	// The headline tracking workload. Settlement streams and evicts, so
	// bytes/op is the Result plus the window-bounded engine state, not a
	// 100k-block tree.
	simulate("sim-100k-blocks", fresh, sim.Config{
		Population: must(mining.TwoAgent(0.35)), Gamma: 0.5, Blocks: 100000,
	}, settled),
	// The long-horizon workload: a million blocks through one reused
	// Runner. Heap stays flat at O(uncle window); bench-smoke takes its
	// heap profile artifact from this workload.
	simulate("sim-1m-blocks", reused, sim.Config{
		Population: must(mining.TwoAgent(0.35)), Gamma: 0.5, Blocks: 1000000,
	}, settled),
	// The paper's Sec. V population (1000 equal miners, 350 selfish).
	// Alias-table sampling keeps it within a small factor of the two-agent
	// run, not ~500x slower.
	simulate("sim-100k-blocks-1000-miners", fresh, sim.Config{
		Population: must(mining.Equal(1000, 350)), Gamma: 0.5, Blocks: 100000,
	}, settled),
	// Two Algorithm-1 pools racing each other: the K-pool engine's tracking
	// workload. Per-event cost is O(K) on top of the O(1) population
	// sampling, so it must stay within a small factor of the single-pool
	// workloads, and the steady state stays allocation-free.
	simulate("sim-100k-blocks-2pools", fresh, sim.Config{
		Population: must(mining.MultiAgent(0.25, 0.2)), Gamma: 0.5, Blocks: 100000,
	}, settled),
	// Two parametric pools from the registry racing each other: the
	// strategy-space engine's tracking workload, allocation-free in steady
	// state and within a small factor of the Algorithm-1 2-pool run.
	simulate("sim-100k-blocks-2pools-stubborn", fresh, sim.Config{
		Population: must(mining.MultiAgent(0.25, 0.2)), Gamma: 0.5, Blocks: 100000,
		Strategies: strategies("stubborn:fork=1,lead=1", "stubborn:trail=2"),
	}, settled),
	// The decision-table showcase: two deep-racing parametric pools whose
	// reactions all resolve inside the compiled table window, so the
	// per-event strategy cost is a table load.
	simulate("sim-100k-blocks-2pools-table", fresh, sim.Config{
		Population: must(mining.MultiAgent(0.25, 0.2)), Gamma: 0.5, Blocks: 100000,
		Strategies: strategies("eager-publish:lead=3", "stubborn:lead=1,trail=2"),
	}, settled),
	// The continuous-time engine with the EIP100 feedback loop closed: one
	// extra exponential draw per event, a settled-floor observation per
	// event and per-block controller stepping, still allocation-free in
	// steady state and within a small factor of the timeless run.
	simulate("sim-100k-blocks-eip100", fresh, sim.Config{
		Population: must(mining.TwoAgent(0.35)), Gamma: 0.5, Blocks: 100000,
		Time: sim.TimeConfig{Enabled: true, Difficulty: difficulty.Params{Rule: difficulty.EIP100}},
	}, timed),
	// The plain half of the fast-forward speedup pair: a small attacker
	// from the low end of the Fig. 8 sweep, where the race spends nearly
	// all of its events at the empty-branch origin, the regime the
	// fast-forward collapses.
	simulate("sim-100k-blocks-alpha05", reused, sim.Config{
		Population: must(mining.TwoAgent(0.05)), Gamma: 0.5, Blocks: 100000,
	}, settled),
	// The same run with the analytic fast-forward engaged (the only knob
	// the pair differs in): uneventful honest stretches collapse to one
	// geometric draw plus a bulk append.
	simulate("sim-100k-blocks-fastforward", reused, sim.Config{
		Population: must(mining.TwoAgent(0.05)), Gamma: 0.5, Blocks: 100000,
		FastForward: true,
	}, settled),
	// The costliest Fig. 8 point: alpha 0.45 under the paper's flat Ku and
	// no uncle depth limit, where races are long and every event scans
	// open uncle candidates. Tracks the chain views and referencer lists
	// behind the uncle scan and the floor purge.
	simulate("sim-100k-blocks-fig8-alpha045", reused, sim.Config{
		Population: must(mining.TwoAgent(0.45)), Gamma: 0.5, Blocks: 100000,
		Schedule: must(rewards.Constant(0.5, rewards.NoDepthLimit)),
	}, referencesUncles),
	// The invariant auditor at its CI-friendly sampling rate: sampling must
	// amortize the fork-child rescan and conservation settle to a small
	// overhead on top of sim-100k-blocks (the audit itself allocates; only
	// the unaudited path is gated allocation-free).
	simulate("sim-100k-blocks-audit-sampled", fresh, sim.Config{
		Population: must(mining.TwoAgent(0.35)), Gamma: 0.5, Blocks: 100000,
		Audit: sim.AuditConfig{Enabled: true, SampleEvery: 1024},
	}, settled),
	simulate("runmany-10x20k", batch, sim.Config{
		Population: must(mining.TwoAgent(0.35)), Gamma: 0.5, Blocks: 20000,
	}, settled),
	sweep("fig8-quick", experiments.Fig8, fig8Threshold),
	sweep("table2-quick", experiments.Table2, func(r experiments.Table2Result) error {
		return wantLen("columns", len(r.Columns), 2)
	}),
	sweep("strategies-quick", func(o experiments.Options) (experiments.StrategiesResult, error) {
		return experiments.Strategies(o)
	}, func(r experiments.StrategiesResult) error { return nonEmpty("rows", len(r.Rows)) }),
	sweep("poolwars-quick", experiments.PoolWars, poolWarsRows),
	// The (rule x gamma x alpha) profitability grid on the
	// engine-integrated difficulty loop.
	sweep("profitability-quick", func(o experiments.Options) (experiments.ProfitabilityResult, error) {
		return experiments.Profitability(o)
	}, func(r experiments.ProfitabilityResult) error { return nonEmpty("rows", len(r.Rows)) }),
	// The round-robin engine over registry specs.
	sweep("tournament-quick", func(o experiments.Options) (experiments.TournamentResult, error) {
		return experiments.Tournament(o)
	}, func(r experiments.TournamentResult) error { return nonEmpty("matches", len(r.Matches)) }),
	precision("precision-plain-quick", experiments.EstimatorPlain),
	precision("precision-cv-quick", experiments.EstimatorControlVariate),
	precision("precision-antithetic-quick", experiments.EstimatorAntithetic),
	// Cold path: a fresh cache every op, so ns/op carries the full
	// address/miss/store overhead on top of poolwars-quick; the pair bounds
	// what the cache costs when it never hits.
	sweep("poolwars-cache-cold", func(o experiments.Options) (experiments.PoolWarsResult, error) {
		o.Cache = resultcache.NewMemory(0)
		return experiments.PoolWars(o)
	}, poolWarsRows),
	{Name: "poolwars-cache-warm", Run: func(b *testing.B, parallel int) {
		// Warm path: one prewarmed cache serves every op, so ns/op is the
		// cost of a fully cached sweep, and no op may miss.
		opts, ok := quick(parallel), verify(b, poolWarsRows)
		opts.Cache = resultcache.NewMemory(0)
		ok(experiments.PoolWars(opts))
		misses := opts.Cache.Stats().Misses
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ok(experiments.PoolWars(opts))
		}
		if opts.Cache.Stats().Misses != misses {
			b.Fatal("a warm sweep missed the cache")
		}
	}},
	{Name: "fig8-quick-cache-disk-warm", Run: func(b *testing.B, parallel int) {
		// Disk-warm path: set-up journals a quick Fig. 8 sweep, and each op
		// reopens the journal and serves the whole sweep from it, the way
		// `ethselfish -quick -cachedir D fig8` reruns do. ns/op is the disk
		// tier's cost: Open's decode plus a disk hit per row.
		opts := quick(parallel)
		dir := b.TempDir()
		sweep := func(warm bool) {
			cache, err := resultcache.Open(dir, 0)
			if err != nil {
				b.Fatal(err)
			}
			opts.Cache = cache
			verify(b, fig8Threshold)(experiments.Fig8(opts))
			if warm && cache.Stats().Misses != 0 {
				b.Fatal("a warm sweep missed the disk journal")
			}
			if err := cache.Close(); err != nil {
				b.Fatal(err)
			}
		}
		sweep(false)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sweep(true)
		}
	}},
	// The analytic figures use only the engine's parallelism.
	sweep("fig9", experiments.Fig9, func(r experiments.Fig9Result) error {
		if r.MaxTotal() < 1.3 {
			return fmt.Errorf("max total %v below the paper's ~1.35", r.MaxTotal())
		}
		return nil
	}),
	sweep("fig10", experiments.Fig10, func(r experiments.Fig10Result) error {
		return wantLen("rows", len(r.Rows), 21)
	}),
	sweep("secvi", experiments.SecVI, func(r experiments.SecVIResult) error { return nonEmpty("rows", len(r.Rows)) }),
	sweep("fig7-chain-dump", func(o experiments.Options) (*table.Table, error) {
		return experiments.Fig7(0.3, 0.5, 8, o)
	}, func(t *table.Table) error { return nonEmpty("rows", t.NumRows()) }),
	sweep("diffablation-quick", experiments.DiffAblation, func(r experiments.DiffAblationResult) error {
		return nonEmpty("rows", len(r.Rows))
	}),
	// One run per point keeps the full (gamma x alpha x candidate) grid
	// affordable as a tracked workload.
	sweep("bestresponse-1x4k", func(o experiments.Options) (experiments.BestResponseResult, error) {
		o.Runs, o.Blocks = 1, 4000
		return experiments.BestResponse(o)
	}, func(r experiments.BestResponseResult) error { return nonEmpty("rows", len(r.Rows)) }),
	{Name: "closed-form-revenue", Run: func(b *testing.B, _ int) {
		m := must(core.New(core.Params{Alpha: 0.35, Gamma: 0.5}))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if m.Revenue().PoolStatic <= 0 {
				b.Fatal("degenerate revenue")
			}
		}
	}},
	{Name: "stationary-numeric", Run: func(b *testing.B, _ int) {
		for i := 0; i < b.N; i++ {
			if _, err := core.NewNumeric(core.Params{Alpha: 0.35, Gamma: 0.5, MaxLead: 80}); err != nil {
				b.Fatal(err)
			}
		}
	}},
	{Name: "threshold-search", Run: func(b *testing.B, _ int) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Threshold(core.ThresholdParams{Gamma: 0.5}); err != nil {
				b.Fatal(err)
			}
		}
	}},
	{Name: "analyze-facade", Run: func(b *testing.B, _ int) {
		for i := 0; i < b.N; i++ {
			a, err := ethselfish.Analyze(0.3, 0.5)
			if err != nil {
				b.Fatal(err)
			}
			if a.Revenue().Pool(ethselfish.Scenario1) <= 0 {
				b.Fatal("degenerate revenue")
			}
		}
	}},
}

// mode is how a simulator workload runs its config each op.
type mode int

const (
	fresh  mode = iota // sim.Run: a new simulator every op
	reused             // one sim.Runner for every op, as each sweep worker keeps one
	batch              // sim.RunMany over batchRuns seeds on the engine's workers
)

// batchRuns is the number of runs in one batch op.
const batchRuns = 10

// simulate builds a simulator workload: op i runs cfg with seed i, and every
// run's Result must pass check. Strategy decision tables are warmed before
// timing, as the experiment engine warms them before fanning a sweep out.
func simulate(name string, m mode, cfg sim.Config, check func(sim.Result) error) Workload {
	return Workload{Name: name, Run: func(b *testing.B, parallel int) {
		cfg, runs, run := cfg, 1, sim.Run
		switch m {
		case reused:
			run = sim.NewRunner().Run
		case batch:
			runs, cfg.Parallelism = batchRuns, parallel
		}
		ok := verify(b, check)
		sim.WarmDecisionTables(cfg.Strategies)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cfg.Seed = uint64(i)
			if m != batch {
				ok(run(cfg))
				continue
			}
			series, err := sim.RunMany(cfg, runs)
			if err != nil {
				b.Fatal(err)
			}
			for _, r := range series.Runs {
				ok(r, nil)
			}
		}
		b.ReportMetric(float64(runs*cfg.Blocks), BlocksMetric)
	}}
}

// sweep builds an experiment workload: each op runs the experiment at
// experiments.Quick effort on the engine's workers, and check must accept
// the result.
func sweep[R any](name string, run func(experiments.Options) (R, error), check func(R) error) Workload {
	return Workload{Name: name, Run: func(b *testing.B, parallel int) {
		opts, ok := quick(parallel), verify(b, check)
		for i := 0; i < b.N; i++ {
			ok(run(opts))
		}
	}}
}

// precision builds a time-to-target-precision workload: one op runs the
// adaptive precision study at a single alpha under one estimator until its
// confidence interval closes under the target half-width, so ns/op is the
// variance-adjusted cost of a fixed precision, lower for estimators with a
// real variance reduction.
func precision(name string, est experiments.Estimator) Workload {
	return sweep(name, func(o experiments.Options) (experiments.PrecisionResult, error) {
		return experiments.Precision(o, experiments.PrecisionConfig{
			Alphas:       []float64{0.3},
			Estimators:   []experiments.Estimator{est},
			TargetRadius: 0.0015,
			MaxRuns:      64,
		})
	}, func(r experiments.PrecisionResult) error { return wantLen("rows", len(r.Rows), 1) })
}

func quick(parallel int) experiments.Options {
	opts := experiments.Quick()
	opts.Parallelism = parallel
	return opts
}

// verify returns a function that fails b unless its arguments are a result
// with a nil error that check accepts; it takes a call's results directly,
// as in verify(b, check)(sim.Run(cfg)).
func verify[R any](b *testing.B, check func(R) error) func(R, error) {
	return func(r R, err error) {
		if err == nil {
			err = check(r)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

func settled(r sim.Result) error {
	if r.RegularCount == 0 {
		return errors.New("no settled blocks")
	}
	return nil
}

func timed(r sim.Result) error {
	if r.Elapsed <= 0 {
		return errors.New("timed run did not advance the clock")
	}
	return settled(r)
}

func referencesUncles(r sim.Result) error {
	if r.UncleCount == 0 {
		return errors.New("no uncles referenced")
	}
	return settled(r)
}

func fig8Threshold(r experiments.Fig8Result) error {
	if t := r.Threshold(); t < 0.1 || t > 0.2 {
		return fmt.Errorf("threshold %v out of expected band [0.1, 0.2]", t)
	}
	return nil
}

func poolWarsRows(r experiments.PoolWarsResult) error { return wantLen("rows", len(r.Rows), 12) }

func wantLen(what string, got, want int) error {
	if got != want {
		return fmt.Errorf("%d %s, want %d", got, what, want)
	}
	return nil
}

func nonEmpty(what string, n int) error {
	if n == 0 {
		return fmt.Errorf("no %s", what)
	}
	return nil
}

// strategies builds one registry strategy per spec, for Config.Strategies.
func strategies(specs ...string) []sim.Strategy {
	parsed := make([]sim.StrategySpec, len(specs))
	for i, s := range specs {
		parsed[i] = sim.MustStrategySpec(s)
	}
	return must(sim.NewStrategies(parsed))
}

// must unwraps a constructor called with this file's constant arguments;
// an error is a bug in the table, so it panics at package initialization.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}
