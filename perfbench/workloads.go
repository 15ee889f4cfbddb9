package main

import (
	"errors"
	"os"
	"strings"

	"github.com/ethselfish/ethselfish/internal/difficulty"
	"github.com/ethselfish/ethselfish/internal/experiments"
	"github.com/ethselfish/ethselfish/internal/mining"
	"github.com/ethselfish/ethselfish/internal/resultcache"
	"github.com/ethselfish/ethselfish/internal/rewards"
	"github.com/ethselfish/ethselfish/internal/sim"
)

// The end-to-end workloads call only experiments.Fig8, sim.Runner.Run and
// resultcache.Open/Close, and set only non-mode Config/Options fields —
// none of Streaming, FastForward, NoDecisionTables, Audit, Antithetic or
// Checkpoint — so changes to the engine's defaults show up in the numbers
// without edits here.

// fig8Sweep runs experiments.Fig8 at the benchmark's scale and seed into a
// result cache journal in dir, the way `ethselfish -cachedir dir fig8`
// does: Open, sweep, Close.
func (b *bench) fig8Sweep(dir string, seed uint64) (experiments.Fig8Result, resultcache.Stats, error) {
	cache, err := resultcache.Open(dir, 0)
	if err != nil {
		return experiments.Fig8Result{}, resultcache.Stats{}, err
	}
	res, err := experiments.Fig8(experiments.Options{
		Runs:        b.scale.Runs,
		Blocks:      b.scale.Blocks,
		Seed:        seed,
		Parallelism: b.workers,
		Cache:       cache,
	})
	stats := cache.Stats()
	if cerr := cache.Close(); err == nil {
		err = cerr
	}
	return res, stats, err
}

// fig8Rows is the number of simulated rows (cache entries) of one sweep.
func fig8Rows(b *bench) int { return len(fig8Alphas()) * b.scale.Runs }

// coldSweep is one fig8-paper-cold op: the paper-scale sweep into a fresh
// journal. Every row is a miss that is simulated and stored.
func coldSweep(b *bench, seed uint64) (outcome, error) {
	dir := b.freshDir()
	res, stats, err := b.fig8Sweep(dir, seed)
	if err != nil {
		return outcome{}, err
	}
	rows := fig8Rows(b)
	return outcome{
		events: int64(rows) * int64(b.scale.Blocks),
		rows:   res.Rows,
		check: func() []string {
			bad := append(checkFig8Rows(res.Rows, b.scale.Fig8T), coldStats(stats, rows)...)
			if err := os.RemoveAll(dir); err != nil {
				bad = append(bad, err.Error())
			}
			return bad
		},
		corrupt: func() { corruptRow(res.Rows, b.scale.Fig8T) },
	}, nil
}

// corruptRow damages the middle row's simulated revenue by twice the
// tolerance tol plus 0.05.
func corruptRow(rows []experiments.Fig8Row, tol float64) {
	if len(rows) > 0 {
		r := &rows[len(rows)/2]
		r.PoolSim += 0.05 + 2*tol*r.PoolSimErr
	}
}

var fig8Cold = workload{
	name: "fig8-paper-cold",
	why:  "Fig. 8 at paper scale into a fresh on-disk journal: simulation, race bookkeeping, row imbalance and cache writes",
	setup: func(b *bench, i int) error {
		sim.WarmDecisionTables([]sim.Strategy{sim.Algorithm1{}})
		out, err := coldSweep(b, b.seedFor("setup", i))
		if err != nil {
			return err
		}
		return checkErr(out.check())
	},
	op: func(b *bench, k int) (outcome, error) {
		return coldSweep(b, b.seedFor("op", k))
	},
}

// warmState is fig8-paper-warm's journal: written by set-up's cold sweep,
// reread by every op.
type warmState struct {
	dir  string
	seed uint64
	rows []experiments.Fig8Row
}

// warmSweep is one fig8-paper-warm op: reopen the journal and serve the
// whole sweep from it.
func warmSweep(b *bench) (outcome, error) {
	res, stats, err := b.fig8Sweep(b.warm.dir, b.warm.seed)
	if err != nil {
		return outcome{}, err
	}
	rows := fig8Rows(b)
	return outcome{
		rows: res.Rows,
		check: func() []string {
			return append(checkSameRows(res.Rows, b.warm.rows), warmStats(stats, rows)...)
		},
		corrupt: func() { corruptRow(res.Rows, b.scale.Fig8T) },
	}, nil
}

var fig8Warm = workload{
	name: "fig8-paper-warm",
	why:  "the same sweep served entirely from the journal set-up wrote: journal decode, cache reads, addressing, dispatch, no simulation",
	setup: func(b *bench, i int) error {
		sim.WarmDecisionTables([]sim.Strategy{sim.Algorithm1{}})
		if b.warm.dir != "" {
			if err := os.RemoveAll(b.warm.dir); err != nil {
				return err
			}
		}
		b.warm = warmState{dir: b.freshDir(), seed: b.seedFor("setup", i)}
		res, _, err := b.fig8Sweep(b.warm.dir, b.warm.seed)
		if err != nil {
			return err
		}
		if err := checkErr(checkFig8Rows(res.Rows, b.scale.Fig8T)); err != nil {
			return err
		}
		b.warm.rows = res.Rows
		out, err := warmSweep(b)
		if err != nil {
			return err
		}
		return checkErr(out.check())
	},
	op: func(b *bench, _ int) (outcome, error) {
		return warmSweep(b)
	},
}

// Chain workload parameters: a 35% pool at gamma 0.5 under Ethereum's
// depth-6 uncle schedule and the EIP100 difficulty rule.
const (
	chainAlpha = 0.35
	chainGamma = 0.5
)

// chainState is chain-1m-eip100's reused Runner and population.
type chainState struct {
	rn        *sim.Runner
	pop       *mining.Population
	predicted float64
}

func (b *bench) chainConfig(seed uint64) sim.Config {
	return sim.Config{
		Population: b.runs.pop,
		Gamma:      chainGamma,
		Blocks:     b.scale.ChainBlocks,
		Seed:       seed,
		Time: sim.TimeConfig{
			Enabled:    true,
			Difficulty: difficulty.Params{Rule: difficulty.EIP100},
		},
	}
}

func chainRun(b *bench, seed uint64) (outcome, error) {
	res, err := b.runs.rn.Run(b.chainConfig(seed))
	if err != nil {
		return outcome{}, err
	}
	return outcome{
		events: int64(b.scale.ChainBlocks),
		run:    &res,
		check: func() []string {
			return checkChainRun(&res, b.scale.ChainBlocks, chainAlpha, b.runs.predicted)
		},
		corrupt: func() { res.UncleCount++ },
	}, nil
}

var chainWork = workload{
	name: "chain-1m-eip100",
	why:  "one 1M-block timed run with EIP100 difficulty through a reused Runner: the per-event engine, the controller and the long-horizon footprint",
	setup: func(b *bench, i int) error {
		pop, err := mining.TwoAgent(chainAlpha)
		if err != nil {
			return err
		}
		predicted, err := difficulty.PredictedRewardRate(difficulty.EIP100, 1, chainAlpha, chainGamma, rewards.Ethereum())
		if err != nil {
			return err
		}
		sim.WarmDecisionTables([]sim.Strategy{sim.Algorithm1{}})
		b.runs = chainState{rn: sim.NewRunner(), pop: pop, predicted: predicted}
		out, err := chainRun(b, b.seedFor("setup", i))
		if err != nil {
			return err
		}
		return checkErr(out.check())
	},
	op: func(b *bench, k int) (outcome, error) {
		return chainRun(b, b.seedFor("op", k))
	},
}

// checkErr turns failed check conditions into an error.
func checkErr(bad []string) error {
	if len(bad) == 0 {
		return nil
	}
	return errors.New("output check failed: " + strings.Join(bad, "; "))
}
