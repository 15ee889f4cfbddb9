package sim

import (
	"fmt"
	"slices"

	"github.com/ethselfish/ethselfish/internal/chain"
	"github.com/ethselfish/ethselfish/internal/stats"
)

// This file is the engine's settlement: instead of retaining the whole run
// and settling it in one end-of-run walk, the engine settles the decided
// prefix incrementally as the consensus floor advances and evicts settled
// records from the tree, keeping resident memory O(active race window)
// instead of O(run length). RunTrace keeps the settlement and turns only
// the eviction off, so its whole tree comes with the same Result.
//
// The contract, layer by layer:
//
//   - Settle boundary. When the floor reaches height fH, the chain prefix up
//     to sH = fH - (window+1) is settled (it was final the moment the floor
//     decided it; settling lags the floor by a window only to keep eviction
//     simple — see below). window = min(schedule.MaxDepth(), 64), the same
//     reference window the candidate bookkeeping uses.
//   - Eviction boundary. Records below sH - window - 1 are evicted
//     (chain.Tree.CompactBelow). No future block can reference anything
//     that deep (a future block's height exceeds fH, putting the evicted
//     prefix beyond the uncle depth limit), and no hot-path walk reads it:
//     the candidate window and the difficulty observation cursor operate
//     at heights above the bound; a chain view dereferences only blocks
//     less than its ring size (at most 2*window) below a tip at or above
//     fH; and the floor purge's fallback walk below the floor view bottoms
//     out at the lowest candidate's parent, which the pre-eviction sweep
//     (sweepDeadRecent) pins at or above sH - window - 1 for every
//     window >= 1.
//   - Bit-identity. The incremental tallies equal the one-shot Settle walk
//     at the final floor bit for bit (see chain.StreamSettler); Result
//     assembly sums them in miner-ID order. Steady's start rounds down to a
//     cumulative snapshot (below) instead of the exact midpoint.
//
// Flushes are batched (streamFlushBatch settled heights at a time) so the
// amortized cost per block is a handful of moves, mirroring the candidate
// window's trim batching.

// streamFlushBatch is the settled-height backlog at which the engine
// settles and evicts. Larger batches amortize the compaction copy-down
// further at the cost of a proportionally larger resident suffix; 256 keeps
// both far below cache sizes.
const streamFlushBatch = 256

// maxStreamSnaps bounds the cumulative-snapshot ring for the Steady window:
// when the ring fills, every other snapshot is dropped and the snapshot
// interval doubles, so a run of any length keeps between half and a full
// ring of snapshots at granularity finalHeight/maxStreamSnaps or finer.
const maxStreamSnaps = 2048

// streamSnap is one cumulative time-window snapshot: the whole settled
// chain's window tallies through the block at height h, stamped with that
// block's time. Its per-pool tallies live in streamState.snapPools.
type streamSnap struct {
	height  int
	time    float64
	regular int
	uncles  int
}

// streamState holds the settlement's per-run state.
type streamState struct {
	settler *chain.StreamSettler

	// hooks is the settler callback pair, built once per simulator so
	// neither flushes nor run restarts allocate.
	hooks chain.SettleHooks

	// poolDist and honestDist accumulate realized reference distances by
	// the uncle's camp.
	poolDist, honestDist stats.Counter

	// Time-window accumulation (timed runs only).
	epoch int
	early Window // heights <= epoch; End stamped when height epoch settles
	cum   Window // cumulative over the whole settled chain

	// snaps, snapInterval, and the pending pair implement the Steady
	// window's cumulative snapshots. A snapshot of height h must include
	// block h's own references, which arrive after its OnBlock; so a due
	// snapshot is held pending and committed when the next block opens
	// (or at final assembly). snapPools holds snapshot i's per-pool
	// tallies at [i*n, (i+1)*n) for n = len(cum.ByPool), one reused
	// buffer instead of an allocation per snapshot.
	snaps         []streamSnap
	snapPools     []chain.Reward
	snapInterval  int
	pendingHeight int
	pendingTime   float64
}

// initStream prepares the settlement for one run.
func (s *simulator) initStream(cfg Config) {
	if s.str == nil {
		s.str = &streamState{
			settler: chain.NewStreamSettler(cfg.Schedule),
			hooks:   chain.SettleHooks{OnBlock: s.streamBlock, OnRef: s.streamRef},
		}
	}
	st := s.str
	st.settler.Reset(cfg.Schedule)
	st.poolDist.Reset()
	st.honestDist.Reset()
	st.snaps = st.snaps[:0]
	st.snapPools = st.snapPools[:0]
	st.snapInterval = 1
	st.pendingHeight = -1
	if s.timing {
		st.epoch = cfg.Time.Difficulty.Epoch
		nPools := cfg.Population.NumPools() + 1
		early := slices.Grow(st.early.ByPool[:0], nPools)[:nPools]
		cum := slices.Grow(st.cum.ByPool[:0], nPools)[:nPools]
		clear(early)
		clear(cum)
		st.early, st.cum = Window{ByPool: early}, Window{ByPool: cum}
	}
}

// streamBlock is the settler's per-block hook: window accumulation and
// snapshot bookkeeping. Reward-tally work lives in the settler itself.
func (s *simulator) streamBlock(id chain.BlockID, height int) {
	if !s.timing {
		return
	}
	st := s.str
	st.commitSnap()
	at := s.tree.TimeOf(id)
	minerPool := s.poolOf(id)
	st.cum.Regular++
	st.cum.ByPool[minerPool].Static++
	if height <= st.epoch {
		st.early.Regular++
		st.early.ByPool[minerPool].Static++
		if height == st.epoch {
			st.early.End = at
		}
	}
	if height%st.snapInterval == 0 {
		st.pendingHeight = height
		st.pendingTime = at
	}
}

// streamRef is the settler's per-reference hook: distance counters (the
// Result's uncle-distance distributions) and window uncle/nephew tallies.
func (s *simulator) streamRef(ref chain.UncleRef) {
	if !s.cfg.Schedule.Referenceable(ref.Distance) {
		return
	}
	st := s.str
	if s.cfg.Population.IsSelfish(s.tree.MinerOf(ref.Uncle)) {
		st.poolDist.Observe(ref.Distance)
	} else {
		st.honestDist.Observe(ref.Distance)
	}
	if !s.timing {
		return
	}
	nephewPool := s.poolOf(ref.Nephew)
	unclePool := s.poolOf(ref.Uncle)
	nv := s.cfg.Schedule.Nephew(ref.Distance)
	uv := s.cfg.Schedule.Uncle(ref.Distance)
	st.cum.Uncles++
	st.cum.ByPool[nephewPool].Nephew += nv
	st.cum.ByPool[unclePool].Uncle += uv
	if s.tree.HeightOf(ref.Nephew) <= st.epoch {
		st.early.Uncles++
		st.early.ByPool[nephewPool].Nephew += nv
		st.early.ByPool[unclePool].Uncle += uv
	}
}

// commitSnap records the pending cumulative snapshot, now that every
// reference of its block has been folded into cum, and compacts the ring
// when it fills.
func (st *streamState) commitSnap() {
	if st.pendingHeight < 0 {
		return
	}
	st.snaps = append(st.snaps, streamSnap{
		height:  st.pendingHeight,
		time:    st.pendingTime,
		regular: st.cum.Regular,
		uncles:  st.cum.Uncles,
	})
	st.snapPools = append(st.snapPools, st.cum.ByPool...)
	st.pendingHeight = -1
	if len(st.snaps) < maxStreamSnaps {
		return
	}
	st.snapInterval *= 2
	n := len(st.cum.ByPool)
	kept, keptPools := st.snaps[:0], st.snapPools[:0]
	for i, sn := range st.snaps {
		if sn.height%st.snapInterval == 0 {
			kept = append(kept, sn)
			keptPools = append(keptPools, st.snapPools[i*n:(i+1)*n]...)
		}
	}
	st.snaps, st.snapPools = kept, keptPools
}

// streamFloor returns the settled floor every consumer of the decided prefix
// reads between events (settlement, the difficulty feed, the audit): the
// maintained consensus floor, or the public tip for a poolless population
// (whose floor never advances — resolve is pool-triggered).
func (s *simulator) streamFloor() chain.BlockID {
	if len(s.pools) == 0 {
		return s.pubTip
	}
	return s.floor
}

// flushStream settles the newly decided prefix and evicts what the settle
// boundary releases. Called once per event after the floor flush (and after
// the difficulty observation, whose cursor must stay ahead of eviction); the
// batching gate makes the common case one subtraction.
func (s *simulator) flushStream() error {
	st := s.str
	floor := s.streamFloor()
	sH := s.tree.HeightOf(floor) - (s.window + 1)
	if sH-st.settler.SettledHeight() < streamFlushBatch {
		return nil
	}
	target := s.tree.AncestorAt(floor, sH)
	if err := st.settler.Advance(s.tree, target, st.hooks); err != nil {
		return fmt.Errorf("sim: settling: %w", err)
	}
	s.evictSettled()
	return nil
}

// evictSettled drops tree records the settle boundary has released and
// rebases the published/inRecent arrays to the tree's new ID base. With
// keepTree only the sweep runs, so a traced run's engine state matches an
// evicting run's.
//
// Before compacting it force-sweeps the candidate window below the keep
// bound: the amortized trim scans in ID order and stops at the first tall
// entry, so a deep fork block can linger in the window (and in the
// fork-child set) long after its height makes it unreferenceable. Those
// stragglers are semantically dead — every future nephew sits more than an
// uncle window above them — but the floor purge (below the floor view's
// ring) and the window audit walk the chain down to the lowest candidate's
// parent, so nothing the window still tracks may be evicted. The sweep
// removes them first, and the compaction keeps one extra height below the
// keep bound so that lowest parent is always resident.
func (s *simulator) evictSettled() {
	minKeep := s.str.settler.SettledHeight() - s.window
	s.sweepDeadRecent(minKeep)
	base := s.tree.Base()
	if s.keepTree || s.tree.CompactBelow(minKeep-1) == 0 {
		return
	}
	shift := s.tree.Base() - base
	n := copy(s.published, s.published[shift:])
	s.published = s.published[:n]
	n = copy(s.inRecent, s.inRecent[shift:])
	s.inRecent = s.inRecent[:n]
}

// sweepDeadRecent removes every candidate-window entry below minHeight,
// regardless of position — the exhaustive counterpart of trimRecent's
// early-exit scan. Entries this deep cannot change any future event (the
// reference depth limit rejects them), so removing them preserves
// bit-identity; the brute-force window audit recomputes its expected set
// from the swept window and stays consistent.
func (s *simulator) sweepDeadRecent(minHeight int) {
	live := s.recent[s.recentHead:]
	kept := live[:0]
	for _, wb := range live {
		if wb.height < minHeight {
			s.inRecent[wb.id-s.tree.Base()] = false
			if len(s.forkChildren) > 0 {
				s.removeForkChild(wb.id)
			}
			continue
		}
		kept = append(kept, wb)
	}
	s.recent = s.recent[:s.recentHead+len(kept)]
}

// assembleWindows finalizes the Early window and derives Steady from the
// cumulative snapshots.
func (st *streamState) assembleWindows(result *Result) {
	early := st.early
	if result.RegularCount < st.epoch {
		// The settled chain never reached the epoch boundary: the early
		// window is the whole settled chain, ending at the floor's stamp —
		// exactly where the one-shot walk stamps height min(epoch, regular).
		early.End = result.SettledTime
	}
	early.ByPool = append([]chain.Reward(nil), early.ByPool...)
	result.Early = early

	// Steady covers the trailing half: subtract the deepest cumulative
	// snapshot at or below regular/2 from the full-chain cumulatives. With
	// no snapshot that deep (short runs, or regular/2 == 0) the zero
	// snapshot applies and Steady spans the whole settled chain from t=0.
	steadyStart := result.RegularCount / 2
	n := len(st.cum.ByPool)
	var base streamSnap
	var basePools []chain.Reward
	for i := len(st.snaps) - 1; i >= 0; i-- {
		if st.snaps[i].height <= steadyStart {
			base, basePools = st.snaps[i], st.snapPools[i*n:(i+1)*n]
			break
		}
	}
	steady := Window{
		Start:   base.time,
		End:     result.SettledTime,
		Regular: st.cum.Regular - base.regular,
		Uncles:  st.cum.Uncles - base.uncles,
		ByPool:  make([]chain.Reward, len(st.cum.ByPool)),
	}
	for i, c := range st.cum.ByPool {
		var b chain.Reward
		if i < len(basePools) {
			b = basePools[i]
		}
		steady.ByPool[i] = chain.Reward{
			Static: c.Static - b.Static,
			Uncle:  c.Uncle - b.Uncle,
			Nephew: c.Nephew - b.Nephew,
		}
	}
	result.Steady = steady
}
