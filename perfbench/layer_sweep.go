package main

import (
	"time"

	"github.com/ethselfish/ethselfish/internal/core"
	"github.com/ethselfish/ethselfish/internal/jobkey"
	"github.com/ethselfish/ethselfish/internal/parallel"
	"github.com/ethselfish/ethselfish/internal/resultcache"
	"github.com/ethselfish/ethselfish/internal/sim"
)

// The sweep-side layers' replay calls, one section per module: jobkey
// (content addresses), resultcache (the journal), core (the analytic
// column) and parallel (dispatch). Each wraps exactly the public calls the
// experiments engine makes, in one span per call or per batch of calls.

// --- jobkey ---

// forConfigs computes every job's content address (one span, one call per
// job).
func forConfigs(s scope, configs []sim.Config) []jobkey.Key {
	start := time.Now()
	keys := make([]jobkey.Key, len(configs))
	for j, cfg := range configs {
		keys[j] = jobkey.ForConfig(cfg)
	}
	s.leaf("jobkey.for_config", start, int64(len(configs)))
	return keys
}

// seedBases derives every job's stream-family base seed.
func seedBases(s scope, seed uint64, configs []sim.Config) []uint64 {
	start := time.Now()
	bases := make([]uint64, len(configs))
	for j, cfg := range configs {
		bases[j] = jobkey.SeedBase(seed, cfg)
	}
	s.leaf("jobkey.seed_base", start, int64(len(configs)))
	return bases
}

// rowAddresses derives every (job x run) row's seed and content address,
// job-major, as the engine does.
func rowAddresses(s scope, keys []jobkey.Key, bases []uint64, runs int) ([]uint64, []jobkey.Key) {
	start := time.Now()
	n := len(keys) * runs
	seeds := make([]uint64, n)
	addrs := make([]jobkey.Key, n)
	for k := range addrs {
		j, r := k/runs, k%runs
		seeds[k] = sim.DeriveSeed(bases[j], r)
		addrs[k] = keys[j].Row(seeds[k])
	}
	s.leaf("jobkey.row", start, int64(n))
	return seeds, addrs
}

// --- resultcache ---

func openCache(s scope, dir string) (*resultcache.Cache, error) {
	start := time.Now()
	c, err := resultcache.Open(dir, 0)
	s.leaf("resultcache.open", start, 1)
	return c, err
}

func closeCache(s scope, c *resultcache.Cache) error {
	start := time.Now()
	err := c.Close()
	s.leaf("resultcache.close", start, 1)
	return err
}

func cacheGet(s scope, c *resultcache.Cache, key jobkey.Key, seed uint64) (sim.Result, bool, error) {
	start := time.Now()
	res, ok, err := c.GetRaw(key, seed)
	s.leaf("resultcache.get", start, 1)
	return res, ok, err
}

func cachePut(s scope, c *resultcache.Cache, key jobkey.Key, seed uint64, res sim.Result) error {
	start := time.Now()
	err := c.PutRaw(key, seed, res)
	s.leaf("resultcache.put", start, 1)
	return err
}

// --- core ---

// modelRevenue solves the closed-form model at one grid point.
func modelRevenue(s scope, p core.Params) (core.Revenue, error) {
	start := time.Now()
	m, err := core.New(p)
	if err != nil {
		return core.Revenue{}, err
	}
	rev := m.Revenue()
	s.leaf("core.model", start, 1)
	return rev, nil
}

// --- parallel ---

// dispatchCost times parallel.MapWith over items empty work items, reps
// times: the engine's per-item dispatch overhead with nothing to run.
func dispatchCost(s scope, workers, items, reps int) error {
	for r := 0; r < reps; r++ {
		start := time.Now()
		if _, err := parallel.MapWith(workers, items,
			func() struct{} { return struct{}{} },
			func(struct{}, int) (struct{}, error) { return struct{}{}, nil }); err != nil {
			return err
		}
		s.leaf("parallel.dispatch", start, int64(items))
	}
	return nil
}

// sweepLeaves are the sweep-side spans that count as attributed layer
// time (everything a sweep op does besides simulating).
var sweepLeaves = []string{
	"experiments.resolve", "experiments.assemble",
	"jobkey.for_config", "jobkey.seed_base", "jobkey.row",
	"resultcache.open", "resultcache.get", "resultcache.put", "resultcache.close",
	"core.model",
}
