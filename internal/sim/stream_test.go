package sim

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	"github.com/ethselfish/ethselfish/internal/chain"
	"github.com/ethselfish/ethselfish/internal/difficulty"
	"github.com/ethselfish/ethselfish/internal/mining"
	"github.com/ethselfish/ethselfish/internal/rewards"
	"github.com/ethselfish/ethselfish/internal/stats"
)

// Settlement streams on every run: the engine folds the decided prefix into
// dense tallies as the consensus floor advances and evicts what it settled.
// These tests pin it against oracles that read the whole tree instead:
// chain.Settle at the final floor for every settled field, and
// referenceWindows for Early (exact) and Steady (exact while the snapshot
// interval is still one block, else within the ring's rounding). The cases
// cover every engine mode settlement touches: timeless and timed, both
// difficulty rules, fast-forward, uncle caps, multi-pool and 1000-miner
// populations, and the Bitcoin window=1 boundary.

// streamEquivCase is one pinned configuration; exact marks runs short enough
// that the Steady snapshot interval stays at one block, making the whole
// Result (Steady included) bit-identical to the oracle.
type streamEquivCase struct {
	name  string
	cfg   Config
	exact bool
}

func streamEquivCases(t *testing.T) []streamEquivCase {
	t.Helper()
	multi, err := mining.MultiAgent(0.25, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	equal, err := mining.Equal(1000, 350)
	if err != nil {
		t.Fatal(err)
	}
	timed := func(rule difficulty.Rule, blocks int) Config {
		cfg := timedConfig(t, 0.35, blocks, rule)
		return cfg
	}
	return []streamEquivCase{
		{
			name:  "timeless-1pool",
			cfg:   Config{Population: twoAgent(t, 0.35), Gamma: 0.5, Blocks: 20000, Seed: 7},
			exact: true,
		},
		{
			name:  "timeless-2pool",
			cfg:   Config{Population: multi, Gamma: 0.5, Blocks: 20000, Seed: 7},
			exact: true,
		},
		{
			name:  "timeless-unclecap",
			cfg:   Config{Population: twoAgent(t, 0.35), Gamma: 0.5, Blocks: 20000, Seed: 7, MaxUnclesPerBlock: 2},
			exact: true,
		},
		{
			name:  "timeless-1000miners",
			cfg:   Config{Population: equal, Gamma: 0.5, Blocks: 20000, Seed: 7},
			exact: true,
		},
		{
			name:  "timeless-bitcoin-window1",
			cfg:   Config{Population: twoAgent(t, 0.35), Gamma: 0.5, Blocks: 20000, Seed: 7, Schedule: rewards.Bitcoin()},
			exact: true,
		},
		{name: "timed-eip100", cfg: timed(difficulty.EIP100, 2000), exact: true},
		{name: "timed-bitcoinstyle", cfg: timed(difficulty.BitcoinStyle, 2000), exact: true},
		{name: "timed-eip100-long", cfg: timed(difficulty.EIP100, 30000), exact: false},
		{
			name:  "fastforward",
			cfg:   Config{Population: twoAgent(t, 0.15), Gamma: 0.5, Blocks: 20000, Seed: 909, FastForward: true},
			exact: true,
		},
		{
			name: "fastforward-timed-static",
			cfg: Config{
				Population:  twoAgent(t, 0.15),
				Gamma:       0.5,
				Blocks:      2000,
				Seed:        909,
				FastForward: true,
				Time: TimeConfig{
					Enabled:    true,
					Difficulty: difficulty.Params{Rule: difficulty.Static},
				},
			},
			exact: true,
		},
	}
}

// diffResults reports every Result field where got diverges from want,
// field by field so a failure names the broken invariant directly.
func diffResults(t *testing.T, want, got Result) {
	t.Helper()
	wv, gv := reflect.ValueOf(want), reflect.ValueOf(got)
	typ := reflect.TypeOf(want)
	for i := 0; i < typ.NumField(); i++ {
		if !reflect.DeepEqual(wv.Field(i).Interface(), gv.Field(i).Interface()) {
			t.Errorf("field %s diverges:\n  want: %+v\n   got: %+v",
				typ.Field(i).Name, wv.Field(i).Interface(), gv.Field(i).Interface())
		}
	}
}

// traceRun runs cfg the way RunTrace does — settling as it goes but
// evicting nothing — and returns the finished simulator with its Result, so
// the oracles below can read the whole tree and the final floor.
func traceRun(t *testing.T, cfg Config) (*simulator, Result) {
	t.Helper()
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		t.Fatal(err)
	}
	s := &simulator{keepTree: true}
	s.init(cfg)
	result, err := settleRun(s)
	if err != nil {
		t.Fatal(err)
	}
	if s.tree.Evicted() != 0 {
		t.Fatal("traced run evicted records")
	}
	return s, result
}

// oneShotResult re-derives every settled field of a traced run's Result
// from one chain.Settle walk over its whole tree at the final consensus
// floor, summed in miner-ID order, and the time windows from
// referenceWindows. Fields settlement does not touch (event counts,
// occupancy, clock and difficulty) are taken from traced unchanged.
func oneShotResult(t *testing.T, s *simulator, traced Result) Result {
	t.Helper()
	cfg := s.cfg
	settlement, err := s.tree.Settle(s.consensusFloor(), cfg.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	want := traced
	want.MinerRewards, want.MinerSeen = settlement.MinerRewards, settlement.MinerSeen
	want.RegularCount, want.UncleCount, want.StaleCount =
		settlement.RegularCount, settlement.UncleCount, settlement.StaleCount
	want.Pool, want.Honest = chain.Reward{}, chain.Reward{}
	want.ByPool = make([]chain.Reward, len(traced.ByPool))
	for id, reward := range settlement.MinerRewards {
		pool := cfg.Population.PoolOf(chain.MinerID(id))
		want.ByPool[pool] = want.ByPool[pool].Add(reward)
		if pool != mining.HonestPool {
			want.Pool = want.Pool.Add(reward)
		} else {
			want.Honest = want.Honest.Add(reward)
		}
	}
	want.PoolUncleDistances, want.HonestUncleDistances = stats.Counter{}, stats.Counter{}
	for _, ref := range settlement.Refs {
		if !cfg.Schedule.Referenceable(ref.Distance) {
			continue
		}
		if cfg.Population.IsSelfish(s.tree.MinerOf(ref.Uncle)) {
			want.PoolUncleDistances.Observe(ref.Distance)
		} else {
			want.HonestUncleDistances.Observe(ref.Distance)
		}
	}
	if s.timing {
		want.SettledTime = s.tree.TimeOf(settlement.Tip)
		want.Early, want.Steady = referenceWindows(s, settlement.Tip, settlement.RegularCount)
	}
	return want
}

// referenceWindows splits the settled chain below floor into the Result's
// two windows by one walk over the whole tree: Early covers the first
// min(epoch, regular) regular blocks and Steady the trailing half, starting
// exactly at height regular/2. Each window's rewards are attributed by the
// rewarding regular block's position on the chain.
func referenceWindows(s *simulator, floor chain.BlockID, regular int) (early, steady Window) {
	tree := s.tree
	earlyEnd := min(s.cfg.Time.Difficulty.Epoch, regular)
	steadyStart := regular / 2
	nPools := s.cfg.Population.NumPools() + 1
	early = Window{ByPool: make([]chain.Reward, nPools)}
	steady = Window{ByPool: make([]chain.Reward, nPools), End: tree.TimeOf(floor)}
	tally := func(w *Window, minerPool mining.PoolID, height int, uncles []chain.BlockID) {
		w.Regular++
		w.ByPool[minerPool].Static++
		for _, u := range uncles {
			d := height - tree.HeightOf(u)
			if !s.cfg.Schedule.Referenceable(d) {
				continue
			}
			w.Uncles++
			w.ByPool[minerPool].Nephew += s.cfg.Schedule.Nephew(d)
			w.ByPool[s.poolOf(u)].Uncle += s.cfg.Schedule.Uncle(d)
		}
	}
	for id := floor; id != tree.Genesis(); id = tree.ParentOf(id) {
		_, height, uncles := tree.BlockInfo(id)
		at := tree.TimeOf(id)
		if height == earlyEnd {
			early.End = at
		}
		if height == steadyStart {
			steady.Start = at
		}
		minerPool := s.poolOf(id)
		if height <= earlyEnd {
			tally(&early, minerPool, height, uncles)
		}
		if height > steadyStart {
			tally(&steady, minerPool, height, uncles)
		}
	}
	return early, steady
}

// TestStreamingEquivalence pins Run bit for bit against the one-shot
// oracle over the traced tree at the same seed, and again with the runtime
// auditor enabled (exercising the settler conservation and clamped
// timestamp audits along the way).
func TestStreamingEquivalence(t *testing.T) {
	for _, c := range streamEquivCases(t) {
		c := c
		t.Run(c.name, func(t *testing.T) {
			s, traced := traceRun(t, c.cfg)
			got, err := Run(c.cfg)
			if err != nil {
				t.Fatal(err)
			}

			auditCfg := c.cfg
			auditCfg.Audit = AuditConfig{Enabled: true, SampleEvery: 512}
			audited, err := Run(auditCfg)
			if err != nil {
				t.Fatal(err)
			}

			want := oneShotResult(t, s, traced)
			if !c.exact {
				// Long timed runs overflow the snapshot ring: Steady's
				// start rounds down to a coarser snapshot, so it is
				// compared by rate in TestStreamingSteadyApproximation.
				want.Steady = Window{}
				got.Steady, audited.Steady = Window{}, Window{}
			}
			if !reflect.DeepEqual(want, got) {
				diffResults(t, want, got)
			}
			if !reflect.DeepEqual(want, audited) {
				t.Error("audited run diverges from the oracle:")
				diffResults(t, want, audited)
			}
		})
	}
}

// TestStreamingSteadyApproximation bounds the snapshot ring's rounding: on
// a run long enough to coarsen the ring, the Steady window must still start
// at or below the exact midpoint, stay within a ring-granularity margin of
// it, and report reward rates within a fraction of a percent of the exact
// window's; Early stays exact.
func TestStreamingSteadyApproximation(t *testing.T) {
	cfg := timedConfig(t, 0.35, 30000, difficulty.EIP100)
	s, stream := traceRun(t, cfg)
	base := oneShotResult(t, s, stream)
	if !reflect.DeepEqual(base.Early, stream.Early) {
		t.Errorf("early window %+v, reference %+v", stream.Early, base.Early)
	}

	bs, ss := base.Steady, stream.Steady
	if ss.End != bs.End {
		t.Errorf("steady end %v, reference %v", ss.End, bs.End)
	}
	if ss.Start > bs.Start {
		t.Errorf("steady start %v after the exact midpoint %v (must round down)", ss.Start, bs.Start)
	}
	if ss.Regular < bs.Regular {
		t.Errorf("steady window regulars %d, reference %d: rounding down must only widen", ss.Regular, bs.Regular)
	}
	// The ring keeps at least maxStreamSnaps/2 snapshots, so the start can
	// overshoot the midpoint by at most ~2/maxStreamSnaps of the chain.
	margin := 4*base.RegularCount/maxStreamSnaps + 1
	if ss.Regular > bs.Regular+margin {
		t.Errorf("steady window regulars %d exceed reference %d by more than the ring margin %d",
			ss.Regular, bs.Regular, margin)
	}
	for pool := range bs.ByPool {
		got, want := ss.RateOf(mining.PoolID(pool)), bs.RateOf(mining.PoolID(pool))
		if math.Abs(got-want) > 0.01*math.Max(want, 1e-9) {
			t.Errorf("pool %d steady rate %v, reference %v (tolerance 1%%)", pool, got, want)
		}
	}
}

// allocDelta measures the heap bytes allocated while f runs. TotalAlloc is
// monotone and GC-independent, so the measurement is stable.
func allocDelta(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestStreamingMemoryIsWindowBounded pins the settlement's memory property:
// on a warmed Runner a run's allocations are bounded by the race window and
// the Result size, not the run length — quadrupling the block count must
// not even double the allocated bytes. (A whole-tree run grows its tree
// arrays with the run and fails this bound by design.)
func TestStreamingMemoryIsWindowBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("long-horizon memory measurement")
	}
	cfg := func(blocks int) Config {
		return Config{Population: twoAgent(t, 0.35), Gamma: 0.5, Blocks: blocks, Seed: 3}
	}
	var runner Runner
	if _, err := runner.Run(cfg(50000)); err != nil { // warm all reusable storage
		t.Fatal(err)
	}
	measure := func(blocks int) uint64 {
		return allocDelta(func() {
			if _, err := runner.Run(cfg(blocks)); err != nil {
				t.Fatal(err)
			}
		})
	}
	d100 := measure(100000)
	d400 := measure(400000)
	// Generous slack for occupancy maps and Result copies; the point is
	// the asymptote, not the constant.
	if d400 > 2*d100+1<<20 {
		t.Errorf("4x blocks allocated %d bytes vs %d at 1x: memory grows with the run, not the window", d400, d100)
	}
}

// TestRunTraceKeepsWholeTree pins RunTrace's contract on a timed EIP100
// run long enough to evict: the traced tree keeps every record, and the
// traced Result equals a reused Runner's, which evicts.
func TestRunTraceKeepsWholeTree(t *testing.T) {
	cfg := timedConfig(t, 0.35, 20000, difficulty.EIP100)
	traced, tree, err := RunTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Evicted() != 0 || tree.Len() != cfg.Blocks+1 {
		t.Errorf("traced tree evicted %d records and holds %d, want 0 and %d",
			tree.Evicted(), tree.Len(), cfg.Blocks+1)
	}
	var runner Runner
	if _, err := runner.Run(timedConfig(t, 0.25, 3000, difficulty.BitcoinStyle)); err != nil {
		t.Fatal(err)
	}
	got, err := runner.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if runner.s.tree.Evicted() == 0 {
		t.Fatal("the Runner never evicted: the run is too short to pin the contract")
	}
	if !reflect.DeepEqual(traced, got) {
		t.Error("RunTrace diverges from Runner.Run:")
		diffResults(t, got, traced)
	}
}

// TestStreamingRunnerReuse pins Runner reuse across configurations: a
// Runner must reproduce a run exactly after running a different
// configuration in between (stale settlement state from a previous run must
// never leak), and the run in between must equal a fresh Run.
func TestStreamingRunnerReuse(t *testing.T) {
	first := Config{Population: twoAgent(t, 0.35), Gamma: 0.5, Blocks: 5000, Seed: 21}
	multi, err := mining.MultiAgent(0.25, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	between := timedConfig(t, 0.3, 5000, difficulty.EIP100)
	between.Population = multi

	var runner Runner
	want, err := runner.Run(first)
	if err != nil {
		t.Fatal(err)
	}
	mid, err := runner.Run(between)
	if err != nil {
		t.Fatal(err)
	}
	again, err := runner.Run(first)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(want, again) {
		t.Error("runs on a reused Runner diverge:")
		diffResults(t, want, again)
	}
	if fresh := run(t, between); !reflect.DeepEqual(fresh, mid) {
		t.Error("run sandwiched on a reused Runner diverges from a fresh run:")
		diffResults(t, fresh, mid)
	}
}
