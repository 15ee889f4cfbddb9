package main

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"github.com/ethselfish/ethselfish/internal/chain"
	"github.com/ethselfish/ethselfish/internal/core"
	"github.com/ethselfish/ethselfish/internal/difficulty"
	"github.com/ethselfish/ethselfish/internal/rewards"
	"github.com/ethselfish/ethselfish/internal/rng"
	"github.com/ethselfish/ethselfish/internal/sim"
)

// The engine-side layers' replay calls, one section per module: sim (the
// run itself and the decision table), mining (event sampling), chain (tree
// extension, settlement, streaming settlement, compaction) and difficulty
// (the controller). The engine is normally the caller of mining, chain and
// difficulty; the traced run records one run's block tree with
// sim.RunTrace and replays the same public calls on it, checking that the
// replay reproduces the recorded tree and the run's Result.

// sink keeps replayed calls from being optimized away; replay workers
// add to it concurrently.
var sink atomic.Int64

// --- sim ---

// runRow is one engine row: Runner.Run, the default-path simulation.
func runRow(s scope, rn *sim.Runner, cfg sim.Config) (sim.Result, error) {
	start := time.Now()
	res, err := rn.Run(cfg)
	s.leaf("sim.run", start, int64(cfg.Blocks))
	return res, err
}

// compileTables times compiling Algorithm 1's decision table: what
// sim.WarmDecisionTables costs a fresh process per strategy.
func compileTables(s scope, reps int) *sim.DecisionTable {
	var t *sim.DecisionTable
	for r := 0; r < reps; r++ {
		start := time.Now()
		t = sim.CompileDecisionTable(sim.Algorithm1{})
		s.leaf("sim.compile_table", start, 1)
	}
	return t
}

// tableLookups replays one decision-table lookup per simulated event at
// the frame the pool observed before it (the run's occupancy), in a fixed
// frame order.
func tableLookups(s scope, t *sim.DecisionTable, occ map[core.State]int64) {
	states := make([]core.State, 0, len(occ))
	for st := range occ {
		states = append(states, st)
	}
	sort.Slice(states, func(i, j int) bool {
		if states[i].S != states[j].S {
			return states[i].S < states[j].S
		}
		return states[i].H < states[j].H
	})
	start := time.Now()
	var calls, acc int64
	for _, st := range states {
		for n := occ[st]; n > 0; n-- {
			r := t.ReactToHonest(st.S, st.H, 0)
			acc += int64(r.PublishTo)
		}
		calls += occ[st]
	}
	s.leaf("sim.table", start, calls)
	sink.Add(acc)
}

// --- mining ---

// sampleEvents replays the run's per-event draws: one Population.Sample on
// the event stream and, on the time axis, one rng.ExpUnit on a second
// stream (the engine's inter-arrival draw).
func sampleEvents(s scope, cfg sim.Config) {
	pop := cfg.Population
	events := rng.New(cfg.Seed)
	start := time.Now()
	var acc int64
	if cfg.Time.Enabled {
		clock := rng.New(^cfg.Seed)
		var t float64
		for i := 0; i < cfg.Blocks; i++ {
			acc += int64(pop.Sample(events).Pool)
			t += clock.ExpUnit()
		}
		acc += int64(t)
	} else {
		for i := 0; i < cfg.Blocks; i++ {
			acc += int64(pop.Sample(events).Pool)
		}
	}
	s.leaf("mining.sample", start, int64(cfg.Blocks))
	sink.Add(acc)
}

// --- chain ---

// treeConfig is the tree configuration the simulator builds for cfg: the
// schedule's reference depth capped at the engine's 64-block window.
func treeConfig(cfg sim.Config, hint int) chain.Config {
	sched := cfg.Schedule
	if sched.MaxDepth() == 0 {
		sched = rewards.Ethereum()
	}
	return chain.Config{
		MaxUncleDepth:     min(sched.MaxDepth(), 64),
		MaxUnclesPerBlock: cfg.MaxUnclesPerBlock,
		BlocksHint:        hint,
	}
}

// replayBlock appends src's block id to dst the way the engine does:
// AppendLeaf where the parent is childless and there are no uncles,
// ExtendAt otherwise. The new block must get the same ID.
func replayBlock(dst, src *chain.Tree, id chain.BlockID) error {
	parent, _, uncles := src.BlockInfo(id)
	miner, at := src.MinerOf(id), src.TimeOf(id)
	var got chain.BlockID
	if len(uncles) == 0 && !dst.HasChildren(parent) {
		var ok bool
		if got, ok = dst.AppendLeaf(parent, miner, at); !ok {
			return fmt.Errorf("replaying block %d: AppendLeaf refused", id)
		}
	} else {
		var err error
		if got, err = dst.ExtendAt(parent, miner, uncles, at); err != nil {
			return fmt.Errorf("replaying block %d: %w", id, err)
		}
	}
	if got != id {
		return fmt.Errorf("replayed block %d got ID %d", id, got)
	}
	return nil
}

// replayTree replays every block of src into a fresh tree.
func replayTree(s scope, src *chain.Tree, cfg chain.Config) (*chain.Tree, error) {
	dst := chain.NewTree(cfg, src.MinerOf(src.Genesis()))
	n := src.Len()
	start := time.Now()
	for id := chain.BlockID(1); int(id) < n; id++ {
		if err := replayBlock(dst, src, id); err != nil {
			return nil, err
		}
	}
	s.leaf("chain.extend", start, int64(n-1))
	return dst, nil
}

// compareTrees checks the replayed tree against the recorded one: length,
// every block's parent, miner, timestamp and uncles, and the tips.
func compareTrees(want, got *chain.Tree) []string {
	if want.Len() != got.Len() {
		return []string{fmt.Sprintf("replayed tree has %d blocks, recorded %d", got.Len(), want.Len())}
	}
	for id := chain.BlockID(0); int(id) < want.Len(); id++ {
		wp, _, wu := want.BlockInfo(id)
		gp, _, gu := got.BlockInfo(id)
		if wp != gp || want.MinerOf(id) != got.MinerOf(id) || want.TimeOf(id) != got.TimeOf(id) || !slices.Equal(wu, gu) {
			return []string{fmt.Sprintf("replayed block %d differs from the recorded one", id)}
		}
	}
	if !slices.Equal(want.Tips(), got.Tips()) {
		return []string{"replayed tree has different tips"}
	}
	return nil
}

// settleAtFloor finds the run's settlement tip — the block at the settled
// height whose Tree.Settle tallies equal the run's Result (the engine
// settles at its consensus floor, which is not exported) — and records
// that Settle call's span. A run with no such block fails replay fidelity.
func settleAtFloor(s scope, t *chain.Tree, want *sim.Result, sched rewards.Schedule) (chain.Settlement, bool, error) {
	for id := chain.BlockID(0); int(id) < t.Len(); id++ {
		if t.HeightOf(id) != want.RegularCount {
			continue
		}
		start := time.Now()
		set, err := t.Settle(id, sched)
		if err != nil {
			return set, false, err
		}
		if settlementMatches(&set, want) {
			s.leaf("chain.settle", start, int64(t.Len()-1))
			return set, true, nil
		}
	}
	return chain.Settlement{}, false, nil
}

func settlementMatches(set *chain.Settlement, want *sim.Result) bool {
	return set.RegularCount == want.RegularCount && set.UncleCount == want.UncleCount &&
		set.StaleCount == want.StaleCount &&
		slices.Equal(set.MinerRewards, want.MinerRewards) && slices.Equal(set.MinerSeen, want.MinerSeen)
}

// streamFlush is the settled-height backlog at which the streamed replay
// settles and compacts, as the engine's streaming overlay does.
const streamFlush = 256

// replayStream replays src into a compacting tree the way streaming
// settlement runs: extend block by block; whenever the settle boundary
// (the newest main-chain block's height minus the uncle window plus one)
// is streamFlush heights past the settled tip, StreamSettler.Advance to it
// and CompactBelow the settled height minus the window minus one — never
// below a record a later block still references — then Advance to tip at
// the end. It returns the settler and the peak resident record count.
func replayStream(s scope, src *chain.Tree, tip chain.BlockID, cfg chain.Config, sched rewards.Schedule) (*chain.StreamSettler, int, error) {
	window := cfg.MaxUncleDepth
	main := src.PathTo(tip)
	n := src.Len()
	// lowest[i] is the lowest height any block at or after ID i refers
	// to (parent or uncle): compaction must keep it resident.
	lowest := make([]int, n+1)
	lowest[n] = int(^uint(0) >> 1)
	for id := n - 1; id >= 1; id-- {
		_, height, uncles := src.BlockInfo(chain.BlockID(id))
		low := min(lowest[id+1], height-1) // the parent's height
		for _, u := range uncles {
			low = min(low, src.HeightOf(u))
		}
		lowest[id] = low
	}

	cfg.BlocksHint = 4 * (window + 1 + streamFlush)
	dst := chain.NewTree(cfg, src.MinerOf(src.Genesis()))
	ss := chain.NewStreamSettler(sched)
	peak, mainHeight := 0, 0
	batch, batchStart := 0, time.Now()
	for id := 1; id < n; id++ {
		if err := replayBlock(dst, src, chain.BlockID(id)); err != nil {
			return nil, 0, err
		}
		batch++
		h := src.HeightOf(chain.BlockID(id))
		if h < len(main) && main[h] == chain.BlockID(id) {
			mainHeight = h
		}
		target := mainHeight - (window + 1)
		if target-ss.SettledHeight() < streamFlush {
			continue
		}
		s.leaf("chain.stream_extend", batchStart, int64(batch))
		from := ss.SettledHeight()
		start := time.Now()
		if err := ss.Advance(dst, main[target], chain.SettleHooks{}); err != nil {
			return nil, 0, err
		}
		s.leaf("chain.stream_settle", start, int64(target-from))
		peak = max(peak, dst.Len()-int(dst.Base()))
		start = time.Now()
		evicted := dst.CompactBelow(min(ss.SettledHeight()-window-1, lowest[id+1]))
		s.leaf("chain.compact", start, int64(evicted))
		batch, batchStart = 0, time.Now()
	}
	s.leaf("chain.stream_extend", batchStart, int64(batch))
	from := ss.SettledHeight()
	start := time.Now()
	if err := ss.Advance(dst, tip, chain.SettleHooks{}); err != nil {
		return nil, 0, err
	}
	s.leaf("chain.stream_settle", start, int64(ss.SettledHeight()-from))
	peak = max(peak, dst.Len()-int(dst.Base()))
	return ss, peak, nil
}

// --- difficulty ---

// observeChain feeds a fresh controller every settled block in chain
// order, with its timestamp and its schedule-referenceable uncle count —
// the engine's observeSettled calls. A timeless tree has no timestamps, so
// its blocks are observed at their heights (one target spacing apart).
func observeChain(s scope, t *chain.Tree, main []chain.BlockID, p difficulty.Params, sched rewards.Schedule, timed bool) (*difficulty.Controller, error) {
	ctrl, err := difficulty.NewController(p)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	for _, b := range main[1:] {
		_, height, uncles := t.BlockInfo(b)
		counted := 0
		for _, u := range uncles {
			if sched.Referenceable(height - t.HeightOf(u)) {
				counted++
			}
		}
		at := float64(height)
		if timed {
			at = t.TimeOf(b)
		}
		ctrl.ObserveBlock(at, counted)
	}
	s.leaf("difficulty.observe", start, int64(len(main)-1))
	return ctrl, nil
}

// --- one row, every engine layer ---

// rowReplay is what replaying one run's layers measured besides spans.
type rowReplay struct {
	uncleRefs int64
	resident  int
	retargets int
}

// replayRow records the run (cfg, want) with sim.RunTrace and replays
// every engine layer over it, returning replay-fidelity failures
// alongside the counts.
func replayRow(s scope, cfg sim.Config, want *sim.Result, table *sim.DecisionTable) (rowReplay, []string, error) {
	var rr rowReplay
	start := time.Now()
	res, tree, err := sim.RunTrace(cfg)
	s.leaf("sim.run_trace", start, int64(cfg.Blocks))
	if err != nil {
		return rr, nil, err
	}
	var bad []string
	if !reflect.DeepEqual(&res, want) {
		bad = append(bad, "sim.RunTrace result differs from Runner.Run")
	}
	rr.uncleRefs = int64(tree.TotalUncleRefs())

	sampleEvents(s, cfg)
	tableLookups(s, table, want.Occupancy)

	tcfg := treeConfig(cfg, cfg.Blocks)
	replayed, err := replayTree(s, tree, tcfg)
	if err != nil {
		return rr, nil, err
	}
	bad = append(bad, compareTrees(tree, replayed)...)

	sched := cfg.Schedule
	if sched.MaxDepth() == 0 {
		sched = rewards.Ethereum()
	}
	set, ok, err := settleAtFloor(s, replayed, want, sched)
	if err != nil {
		return rr, nil, err
	}
	if !ok {
		return rr, append(bad, "no block at the settled height settles to the run's Result"), nil
	}

	ss, peak, err := replayStream(s, tree, set.Tip, tcfg, sched)
	if err != nil {
		return rr, nil, err
	}
	rr.resident = peak
	if ss.RegularCount() != set.RegularCount || ss.UncleCount() != set.UncleCount ||
		!slices.Equal(ss.MinerRewards(), set.MinerRewards) {
		bad = append(bad, "streamed settlement differs from Tree.Settle")
	}

	params := difficulty.Params{Rule: difficulty.EIP100}
	if cfg.Time.Enabled {
		params = cfg.Time.Difficulty
	}
	ctrl, err := observeChain(s, replayed, replayed.PathTo(set.Tip), params, sched, cfg.Time.Enabled)
	if err != nil {
		return rr, nil, err
	}
	rr.retargets = ctrl.Retargets()
	if cfg.Time.Enabled && (ctrl.Difficulty() != want.FinalDifficulty || ctrl.Retargets() != want.Retargets) {
		bad = append(bad, fmt.Sprintf("replayed controller ends at difficulty %v after %d retargets, run at %v after %d",
			ctrl.Difficulty(), ctrl.Retargets(), want.FinalDifficulty, want.Retargets))
	}
	return rr, bad, nil
}

// engineLeaves are the replayed layers on the default engine path: their
// time per event, subtracted from sim.run's, leaves the unattributed
// remainder (uncle scan, fork-child purge, fork choice). The controller
// counts only on timed runs with a feedback rule.
func engineLeaves(timed bool) []string {
	leaves := []string{"mining.sample", "sim.table", "chain.extend", "chain.settle"}
	if timed {
		leaves = append(leaves, "difficulty.observe")
	}
	return leaves
}
