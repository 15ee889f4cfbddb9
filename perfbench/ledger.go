package main

import (
	"fmt"
	"io"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"time"

	"github.com/ethselfish/ethselfish/internal/core"
	"github.com/ethselfish/ethselfish/internal/parallel"
	"github.com/ethselfish/ethselfish/internal/resultcache"
	"github.com/ethselfish/ethselfish/internal/rewards"
	"github.com/ethselfish/ethselfish/internal/sim"
)

// The traced run: untraced ops first (the median of their same-seed times
// is the base of trace.overhead_ratio and trace.attributed_share), then one
// traced op whose pipeline is replayed layer by layer from the benchmark's
// own code, then a layer replay of every simulated row, then the per-layer
// ledger.

// perLayer lists the per-layer metrics of BENCHMARK.json with their units.
var perLayer = []struct{ name, unit string }{
	{"experiments.rows", "count"},
	{"experiments.worker_idle_share", "ratio"},
	{"parallel.dispatch_ns_per_item", "ns"},
	{"jobkey.for_config_ns", "ns"},
	{"jobkey.row_ns", "ns"},
	{"resultcache.open_ms", "ms"},
	{"resultcache.get_ns_per_row", "ns"},
	{"resultcache.hit_ratio", "ratio"},
	{"resultcache.put_ns_per_row", "ns"},
	{"resultcache.journal_bytes_per_row", "bytes"},
	{"core.model_us_per_point", "us"},
	{"sim.run_ns_per_event", "ns"},
	{"sim.slowest_row_s", "s"},
	{"sim.table_ns_per_lookup", "ns"},
	{"sim.warm_tables_us", "us"},
	{"sim.unattributed_ns_per_event", "ns"},
	{"mining.sample_ns_per_event", "ns"},
	{"chain.extend_ns_per_block", "ns"},
	{"chain.settle_ns_per_block", "ns"},
	{"chain.stream_settle_ns_per_block", "ns"},
	{"chain.compact_ns_per_block", "ns"},
	{"chain.uncle_refs_per_block", "count"},
	{"chain.resident_records", "count"},
	{"difficulty.observe_ns_per_block", "ns"},
	{"difficulty.retargets", "count"},
	{"trace.attributed_share", "ratio"},
	{"trace.overhead_ratio", "ratio"},
}

// ledger is a traced run's outcome: the per-layer values, where each was
// measured, and the checks.
type ledger struct {
	values map[string]float64
	// where says which part of the workload a layer's number comes from:
	// "op" (the timed op's own path), "set-up" (the work set-up does),
	// or "off-path" (the layer's cost on this workload's inputs, though
	// its ops never call it).
	where     map[string]string
	bad       []string
	attempted int
	failed    int
}

func newLedger() *ledger {
	return &ledger{values: map[string]float64{}, where: map[string]string{}}
}

// op counts one checked op (untraced or traced).
func (lg *ledger) op(bad []string) {
	lg.attempted++
	if len(bad) > 0 {
		lg.failed++
		lg.bad = append(lg.bad, bad...)
	}
}

func (lg *ledger) set(name, where string, v float64) {
	lg.values[name] = v
	lg.where[name] = where
}

// spanSources names the ops whose spans feed each group of metrics.
type spanSources struct {
	sweep int // dispatch, rows, addressing, cache reads, analytic column
	sim   int // simulation, cache writes, engine-layer replays
	micro int // parallel dispatch and table compilation
	// where each group was measured (see ledger.where)
	sweepWhere, simWhere, keyWhere, putWhere string
	// keyOp and putOp carry the jobkey/resultcache/core spans (the
	// sweep op, or an off-path replay) and the cache writes.
	keyOp, putOp int

	workers  int     // workers the sweep op ran on
	untraced float64 // seconds of the untraced op with the same inputs
	timed    bool    // the simulated rows have a time axis (controller on path)

	events  int64 // events of the replayed rows
	replays []rowReplay
	stats   resultcache.Stats // the sweep op's cache traffic
	journal float64           // journal bytes per row written by putOp
}

// fill computes every per-layer metric from the spans.
func (lg *ledger) fill(tr *tracer, src spanSources) {
	perCall := func(op int, name string) float64 {
		ns, calls, _ := tr.total(op, name)
		return float64(ns) / float64(max(calls, 1))
	}
	perEvent := func(op int, name string) float64 {
		ns, _, _ := tr.total(op, name)
		return float64(ns) / float64(max(src.events, 1))
	}

	_, _, rows := tr.total(src.sweep, "experiments.row")
	lg.set("experiments.rows", src.sweepWhere, float64(rows))
	wall, _, _ := tr.total(src.sweep, "parallel.map")
	wk := min(src.workers, max(rows, 1))
	if wall == 0 {
		wall, wk = tr.rootDur(src.sweep), 1
	}
	busy, _, _ := tr.total(src.sweep, "experiments.row")
	lg.set("experiments.worker_idle_share", src.sweepWhere, float64(int64(wk)*wall-busy)/float64(int64(wk)*wall))

	lg.set("parallel.dispatch_ns_per_item", src.keyWhere, perCall(src.micro, "parallel.dispatch"))
	lg.set("jobkey.for_config_ns", src.keyWhere, perCall(src.keyOp, "jobkey.for_config"))
	lg.set("jobkey.row_ns", src.keyWhere, perCall(src.keyOp, "jobkey.row"))
	lg.set("resultcache.open_ms", src.keyWhere, perCall(src.keyOp, "resultcache.open")/1e6)
	lg.set("resultcache.get_ns_per_row", src.keyWhere, perCall(src.keyOp, "resultcache.get"))
	probes := src.stats.Hits() + src.stats.Misses
	lg.set("resultcache.hit_ratio", src.keyWhere, float64(src.stats.Hits())/float64(max(probes, 1)))
	lg.set("resultcache.put_ns_per_row", src.putWhere, perCall(src.putOp, "resultcache.put"))
	lg.set("resultcache.journal_bytes_per_row", src.putWhere, src.journal)
	lg.set("core.model_us_per_point", src.keyWhere, perCall(src.keyOp, "core.model")/1e3)

	runNs := perCall(src.sim, "sim.run")
	lg.set("sim.run_ns_per_event", src.simWhere, runNs)
	lg.set("sim.slowest_row_s", src.simWhere, float64(tr.longest(src.sim, "sim.run"))/1e9)
	lg.set("sim.table_ns_per_lookup", src.simWhere, perCall(src.sim, "sim.table"))
	lg.set("sim.warm_tables_us", "set-up", perCall(src.micro, "sim.compile_table")/1e3)
	lg.set("mining.sample_ns_per_event", src.simWhere, perEvent(src.sim, "mining.sample"))
	lg.set("chain.extend_ns_per_block", src.simWhere, perEvent(src.sim, "chain.extend"))
	lg.set("chain.settle_ns_per_block", src.simWhere, perEvent(src.sim, "chain.settle"))
	// The default engine settles in one walk; streaming settlement and
	// compaction are what the streaming path would add on the same chain.
	lg.set("chain.stream_settle_ns_per_block", "off-path", perEvent(src.sim, "chain.stream_settle"))
	lg.set("chain.compact_ns_per_block", "off-path", perEvent(src.sim, "chain.compact"))
	var refs int64
	var resident, retargets int
	for _, r := range src.replays {
		refs += r.uncleRefs
		resident = max(resident, r.resident)
		retargets += r.retargets
	}
	lg.set("chain.uncle_refs_per_block", src.simWhere, float64(refs)/float64(max(src.events, 1)))
	lg.set("chain.resident_records", "off-path", float64(resident))
	diffWhere := "off-path"
	if src.timed {
		diffWhere = src.simWhere
	}
	lg.set("difficulty.observe_ns_per_block", diffWhere, perEvent(src.sim, "difficulty.observe"))
	lg.set("difficulty.retargets", diffWhere, float64(retargets))

	var engineNs float64
	for _, name := range engineLeaves(src.timed) {
		engineNs += perEvent(src.sim, name)
	}
	lg.set("sim.unattributed_ns_per_event", src.simWhere, runNs-engineNs)

	// Attributed time: every replayed leaf layer of the op — the sweep
	// side's calls plus, when the op simulates, the engine layers that
	// decompose its runs — over the op's worker-seconds.
	var attributed int64
	if src.keyOp == src.sweep {
		for _, name := range sweepLeaves {
			ns, _, _ := tr.total(src.sweep, name)
			attributed += ns
		}
	}
	if src.sim == src.sweep {
		for _, name := range engineLeaves(src.timed) {
			ns, _, _ := tr.total(src.sim, name)
			attributed += ns
		}
	}
	lg.set("trace.attributed_share", "op", float64(attributed)/(float64(wk)*src.untraced*1e9))
	lg.set("trace.overhead_ratio", "op", float64(tr.rootDur(src.sweep))/(src.untraced*1e9))
}

// print writes the ledger, one layer per line, and returns the metrics.
func (lg *ledger) print(out io.Writer) map[string]metric {
	metrics := make(map[string]metric, len(perLayer))
	for _, m := range perLayer {
		v := lg.values[m.name]
		metrics[m.name] = metric{Value: v, Unit: m.unit}
		fmt.Fprintf(out, "layer %-34s %16.6g %-6s %s\n", m.name, v, m.unit, lg.where[m.name])
	}
	return metrics
}

func traceWorkload(b *bench, w workload, out io.Writer) (report, error) {
	tr := newTracer()
	var lg *ledger
	var err error
	if w.name == chainWork.name {
		lg, err = traceChain(b, tr)
	} else {
		lg, err = traceFig8(b, tr, w.name == fig8Cold.name)
	}
	if err != nil {
		return report{}, err
	}
	path := filepath.Join(b.opts.out, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, b.opts.seed))
	if err := tr.write(path, b.stamp()); err != nil {
		return report{}, err
	}
	fmt.Fprintf(out, "# spans %s (%d spans)\n", path, len(tr.spans))
	for _, bad := range lg.bad {
		fmt.Fprintln(b.log, "perfbench: check failed:", bad)
	}
	metrics := lg.print(out)
	return report{Correct: lg.failed == 0, Attempted: lg.attempted, Failed: lg.failed, Metrics: metrics}, nil
}

// microLayers times the layers measured outside any op: parallel dispatch
// of items empty work items, and decision-table compilation.
func microLayers(b *bench, tr *tracer, items int) (int, *sim.DecisionTable, error) {
	s := tr.newOp("micro")
	defer s.end(0)
	if err := dispatchCost(s, b.workers, items, 200); err != nil {
		return 0, nil, err
	}
	return s.op, compileTables(s, 5), nil
}

// replayRows replays every simulated row's engine layers across the
// worker pool, under op s.
func replayRows(b *bench, s scope, configs []sim.Config, seeds []uint64, results []sim.Result, runs int, table *sim.DecisionTable) ([]rowReplay, []string, error) {
	rep := s.begin("replay")
	var next atomic.Int64
	type done struct {
		rr  rowReplay
		bad []string
	}
	out, err := parallel.MapWith(b.workers, len(results),
		func() int { return int(next.Add(1)) },
		func(w int, k int) (done, error) {
			cfg := configs[k/runs]
			cfg.Seed = seeds[k]
			rr, bad, err := replayRow(rep.on(w), cfg, &results[k], table)
			return done{rr, bad}, err
		})
	rep.end(int64(len(results)))
	if err != nil {
		return nil, nil, err
	}
	replays := make([]rowReplay, len(out))
	var bad []string
	for i, d := range out {
		replays[i] = d.rr
		bad = append(bad, d.bad...)
	}
	return replays, bad, nil
}

// traceFig8 is the traced run of fig8-paper-cold (cold) or -warm.
func traceFig8(b *bench, tr *tracer, cold bool) (*ledger, error) {
	lg := newLedger()
	rows := fig8Rows(b)
	src := spanSources{workers: b.workers, sweepWhere: "op", keyWhere: "op"}
	var sweep sweepTrace
	if cold {
		if err := fig8Cold.setup(b, 0); err != nil {
			return nil, err
		}
		seed := b.seedFor("op", 0)
		var times []float64
		var ref outcome
		for k := 0; k < 3; k++ {
			start := time.Now()
			out, err := coldSweep(b, seed)
			if err != nil {
				return nil, err
			}
			times = append(times, time.Since(start).Seconds())
			lg.op(out.check())
			ref = out
		}
		src.untraced = median(times)

		s := tr.newOp(fig8Cold.name)
		var err error
		sweep, err = replayFig8(b, s, b.freshDir(), seed)
		s.end(int64(rows))
		if err != nil {
			return nil, err
		}
		lg.op(append(checkReplayRows(sweep.rows, ref.rows), coldStats(sweep.stats, rows)...))
		src.sweep, src.sim = s.op, s.op
		src.simWhere, src.putWhere = "op", "op"
		src.stats = sweep.stats
	} else {
		if err := fig8Warm.setup(b, 0); err != nil {
			return nil, err
		}
		var times []float64
		for k := 0; k < 10; k++ {
			start := time.Now()
			out, err := warmSweep(b)
			if err != nil {
				return nil, err
			}
			times = append(times, time.Since(start).Seconds())
			lg.op(out.check())
		}
		src.untraced = median(times)

		dir := b.freshDir()
		setup := tr.newOp(fig8Warm.name + " set-up")
		var err error
		sweep, err = replayFig8(b, setup, dir, b.warm.seed)
		setup.end(int64(rows))
		if err != nil {
			return nil, err
		}
		lg.op(append(checkReplayRows(sweep.rows, b.warm.rows), coldStats(sweep.stats, rows)...))

		s := tr.newOp(fig8Warm.name)
		served, err := replayFig8(b, s, dir, b.warm.seed)
		s.end(int64(rows))
		if err != nil {
			return nil, err
		}
		lg.op(append(checkReplayRows(served.rows, b.warm.rows), warmStats(served.stats, rows)...))
		src.sweep, src.sim = s.op, setup.op
		src.simWhere, src.putWhere = "set-up", "set-up"
		src.stats = served.stats
	}
	src.keyOp, src.putOp = src.sweep, src.sim
	src.journal = float64(sweep.journal) / float64(rows)

	micro, table, err := microLayers(b, tr, rows)
	if err != nil {
		return nil, err
	}
	src.micro = micro
	simScope := scope{tr: tr, op: src.sim, parent: -1}
	replays, bad, err := replayRows(b, simScope, sweep.configs, sweep.seeds, sweep.results, b.scale.Runs, table)
	if err != nil {
		return nil, err
	}
	lg.op(bad)
	src.replays = replays
	src.events = int64(rows) * int64(b.scale.Blocks)
	lg.fill(tr, src)
	return lg, nil
}

// traceChain is the traced run of chain-1m-eip100.
func traceChain(b *bench, tr *tracer) (*ledger, error) {
	lg := newLedger()
	if err := chainWork.setup(b, 0); err != nil {
		return nil, err
	}
	seed := b.seedFor("op", 0)
	var times []float64
	var ref *sim.Result
	for k := 0; k < 3; k++ {
		start := time.Now()
		out, err := chainRun(b, seed)
		if err != nil {
			return nil, err
		}
		times = append(times, time.Since(start).Seconds())
		lg.op(out.check())
		ref = out.run
	}

	cfg := b.chainConfig(seed)
	s := tr.newOp(chainWork.name)
	row := s.begin("experiments.row")
	res, err := runRow(row, b.runs.rn, cfg)
	row.end(1)
	s.end(1)
	if err != nil {
		return nil, err
	}
	bad := checkChainRun(&res, b.scale.ChainBlocks, chainAlpha, b.runs.predicted)
	if !reflect.DeepEqual(&res, ref) {
		bad = append(bad, "traced run differs from the untraced run with the same seed")
	}
	lg.op(bad)

	micro, table, err := microLayers(b, tr, 1)
	if err != nil {
		return nil, err
	}
	replays, bad, err := replayRows(b, scope{tr: tr, op: s.op, parent: -1},
		[]sim.Config{cfg}, []uint64{seed}, []sim.Result{res}, 1, table)
	if err != nil {
		return nil, err
	}
	lg.op(bad)

	off := tr.newOp("sweep layers off-path")
	stats, journal, err := sweepLayersOffPath(b, off, cfg, res)
	off.end(0)
	if err != nil {
		return nil, err
	}
	lg.fill(tr, spanSources{
		sweep: s.op, sim: s.op, micro: micro, keyOp: off.op, putOp: off.op,
		sweepWhere: "op", simWhere: "op", keyWhere: "off-path", putWhere: "off-path",
		workers: 1, untraced: median(times), timed: true,
		events: int64(b.scale.ChainBlocks), replays: replays, stats: stats, journal: journal,
	})
	return lg, nil
}

// sweepLayersOffPath measures the sweep-side layers on the chain run's own
// inputs — what caching and addressing this run would cost a -cachedir
// user, though the workload's ops never call them: its config's content
// address and row address, storing the row in a fresh journal, reopening
// the journal and reading the row back, and the closed-form model at its
// (alpha, gamma). It returns the reads' cache traffic and the journal's
// bytes per row.
func sweepLayersOffPath(b *bench, s scope, cfg sim.Config, res sim.Result) (resultcache.Stats, float64, error) {
	const reps = 100
	for r := 0; r < reps; r++ {
		keys := forConfigs(s, []sim.Config{cfg})
		bases := seedBases(s, 0, []sim.Config{cfg})
		rowAddresses(s, keys, bases, 1)
	}
	key := forConfigs(s, []sim.Config{cfg})[0].Row(cfg.Seed)
	dir := b.freshDir()
	c, err := openCache(s, dir)
	if err != nil {
		return resultcache.Stats{}, 0, err
	}
	if err := cachePut(s, c, key, cfg.Seed, res); err != nil {
		return resultcache.Stats{}, 0, err
	}
	if err := closeCache(s, c); err != nil {
		return resultcache.Stats{}, 0, err
	}
	journal := float64(dirBytes(dir))
	var stats resultcache.Stats
	for r := 0; r < 10; r++ {
		c, err := openCache(s, dir)
		if err != nil {
			return stats, 0, err
		}
		got, ok, err := cacheGet(s, c, key, cfg.Seed)
		st := c.Stats()
		stats.DiskHits += st.DiskHits
		stats.MemoryHits += st.MemoryHits
		stats.Misses += st.Misses
		if cerr := closeCache(s, c); err == nil {
			err = cerr
		}
		if err != nil {
			return stats, 0, err
		}
		if !ok || !reflect.DeepEqual(got, res) {
			return stats, 0, fmt.Errorf("journal read back a different row")
		}
	}
	for r := 0; r < 10; r++ {
		if _, err := modelRevenue(s, core.Params{Alpha: chainAlpha, Gamma: chainGamma, Schedule: rewards.Ethereum()}); err != nil {
			return stats, 0, err
		}
	}
	return stats, journal, nil
}
