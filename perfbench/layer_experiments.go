package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"github.com/ethselfish/ethselfish/internal/core"
	"github.com/ethselfish/ethselfish/internal/experiments"
	"github.com/ethselfish/ethselfish/internal/jobkey"
	"github.com/ethselfish/ethselfish/internal/mining"
	"github.com/ethselfish/ethselfish/internal/parallel"
	"github.com/ethselfish/ethselfish/internal/resultcache"
	"github.com/ethselfish/ethselfish/internal/rewards"
	"github.com/ethselfish/ethselfish/internal/sim"
)

// Layer experiments: the traced replay of experiments.Fig8's pipeline
// (request -> jobs -> rows), composed from the other layers' replay calls
// in the order the engine makes them. Its rows must be bit-identical to
// experiments.Fig8 at the same seed; the traced run checks that.

// Fig. 8's parameters, as internal/experiments/fig8.go defines them.
const (
	fig8Gamma      = 0.5
	fig8Ku         = 0.5
	fig8AlphaStart = 0.025
	fig8AlphaMax   = 0.45
	fig8AlphaStep  = 0.025
)

// fig8Alphas reproduces the engine's sweep grid: a point count floored
// with an epsilon, each value an index multiply.
func fig8Alphas() []float64 {
	n := 1 + int(math.Floor((fig8AlphaMax-fig8AlphaStart)/fig8AlphaStep+1e-9))
	out := make([]float64, n)
	for i := range out {
		out[i] = fig8AlphaStart + float64(i)*fig8AlphaStep
	}
	return out
}

// sweepTrace is what one traced Fig. 8 sweep produced.
type sweepTrace struct {
	rows    []experiments.Fig8Row
	configs []sim.Config // per alpha point, fully resolved
	seeds   []uint64     // per row, point-major
	results []sim.Result // per row, point-major
	stats   resultcache.Stats
	journal int64 // journal bytes on disk after Close
}

// rowWorker is one dispatch worker's state: its reused Runner and the
// worker number its spans carry.
type rowWorker struct {
	rn *sim.Runner
	id int
}

// replayFig8 replays experiments.Fig8 against the result cache in dir:
// resolve the jobs, address every row, serve each from the cache or
// simulate and store it across the worker pool, then solve the analytic
// column and assemble the rows. The sweep has no duplicate row addresses
// (every alpha point differs), so the engine's within-sweep dedupe is a
// no-op and is not replayed.
func replayFig8(b *bench, s scope, dir string, seed uint64) (sweepTrace, error) {
	var st sweepTrace
	cache, err := openCache(s, dir)
	if err != nil {
		return st, err
	}
	defer cache.Close()

	schedule, err := rewards.Constant(fig8Ku, rewards.NoDepthLimit)
	if err != nil {
		return st, err
	}
	alphas := fig8Alphas()
	start := time.Now()
	st.configs = make([]sim.Config, len(alphas))
	for j, alpha := range alphas {
		pop, err := mining.TwoAgent(alpha)
		if err != nil {
			return st, err
		}
		st.configs[j] = sim.Config{Gamma: fig8Gamma, Schedule: schedule, Population: pop, Blocks: b.scale.Blocks}
	}
	s.leaf("experiments.resolve", start, int64(len(alphas)))
	keys := forConfigs(s, st.configs)
	bases := seedBases(s, seed, st.configs)
	runs := b.scale.Runs
	var rowKeys []jobkey.Key
	st.seeds, rowKeys = rowAddresses(s, keys, bases, runs)

	n := len(rowKeys)
	var nextWorker atomic.Int64
	dispatch := s.begin("parallel.map")
	st.results, err = parallel.MapWith(b.workers, n,
		func() *rowWorker { return &rowWorker{rn: sim.NewRunner(), id: int(nextWorker.Add(1))} },
		func(w *rowWorker, k int) (sim.Result, error) {
			row := dispatch.on(w.id).begin("experiments.row")
			defer row.end(1)
			res, ok, err := cacheGet(row, cache, rowKeys[k], st.seeds[k])
			if err != nil || ok {
				return res, err
			}
			cfg := st.configs[k/runs]
			cfg.Seed = st.seeds[k]
			res, err = runRow(row, w.rn, cfg)
			if err != nil {
				return res, err
			}
			return res, cachePut(row, cache, rowKeys[k], st.seeds[k], res)
		})
	dispatch.end(int64(n))
	if err != nil {
		return st, err
	}
	st.stats = cache.Stats()
	if err := closeCache(s, cache); err != nil {
		return st, err
	}
	st.journal = dirBytes(dir)

	var nextPoint atomic.Int64
	st.rows, err = parallel.MapWith(b.workers, len(alphas),
		func() scope { return s.on(int(nextPoint.Add(1))) },
		func(w scope, j int) (experiments.Fig8Row, error) {
			rev, err := modelRevenue(w, core.Params{Alpha: alphas[j], Gamma: fig8Gamma, Schedule: schedule})
			if err != nil {
				return experiments.Fig8Row{}, err
			}
			start := time.Now()
			series := sim.Series{Runs: st.results[j*runs : (j+1)*runs]}
			pool := series.PoolAbsolute(core.Scenario1)
			honest := series.HonestAbsolute(core.Scenario1)
			row := experiments.Fig8Row{
				Alpha:          alphas[j],
				HonestMining:   alphas[j],
				PoolAnalytic:   rev.PoolAbsolute(core.Scenario1),
				HonestAnalytic: rev.HonestAbsolute(core.Scenario1),
				PoolSim:        pool.Mean(),
				PoolSimErr:     pool.StdErr(),
				HonestSim:      honest.Mean(),
				HonestSimErr:   honest.StdErr(),
			}
			w.leaf("experiments.assemble", start, 1)
			return row, nil
		})
	return st, err
}

// dirBytes sums the sizes of the regular files in dir (the journal).
func dirBytes(dir string) int64 {
	var total int64
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	for _, e := range entries {
		if info, err := os.Stat(filepath.Join(dir, e.Name())); err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
	}
	return total
}

// checkReplayRows checks the traced replay against the library: the
// replayed pipeline must reproduce experiments.Fig8's rows bit for bit, or
// its per-layer numbers would not describe the same work.
func checkReplayRows(got, want []experiments.Fig8Row) []string {
	bad := checkSameRows(got, want)
	for i := range bad {
		bad[i] = fmt.Sprintf("traced replay: %s", bad[i])
	}
	return bad
}
