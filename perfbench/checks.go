package main

import (
	"fmt"
	"math"

	"github.com/ethselfish/ethselfish/internal/experiments"
	"github.com/ethselfish/ethselfish/internal/resultcache"
	"github.com/ethselfish/ethselfish/internal/sim"
)

// Output checks. Every check states its false-failure probability per op:
// the chance that a correct program fails it by sampling noise alone. Each
// is at most 1e-6, so even thousands of benchmark ops see a false failure
// with probability well under 1%.

// fig8FalseFailure is the per-op false-failure budget of the Fig. 8
// tolerance check, split evenly (union bound) across the sweep's rows and
// both tails.
const fig8FalseFailure = 1e-6

// checkFig8Rows checks every row's simulated pool revenue against the
// closed-form model: (PoolSim - PoolAnalytic) / PoolSimErr is Student-t
// with runs-1 degrees of freedom when the simulator is right, so the
// tolerance tol is the t quantile at fig8FalseFailure/(2*rows) per tail
// (scale.Fig8T). The worst |t| observed over paper-scale sweeps was 3.15
// (a naive 3-sigma check would flake on about one sweep in five); at paper
// scale (9 degrees of freedom, 18 rows) the quantile is about 16 standard
// errors, which still flags any row whose revenue is off by more than that.
// False-failure probability: at most 1e-6 per op.
func checkFig8Rows(rows []experiments.Fig8Row, tol float64) []string {
	var bad []string
	if want := len(fig8Alphas()); len(rows) != want {
		bad = append(bad, fmt.Sprintf("got %d Fig. 8 rows, want %d", len(rows), want))
	}
	for _, row := range rows {
		diff := math.Abs(row.PoolSim - row.PoolAnalytic)
		if !(diff <= tol*row.PoolSimErr) {
			bad = append(bad, fmt.Sprintf("alpha=%.3f: pool(sim)=%.5f +- %.5f vs pool(analytic)=%.5f (|t|=%.2f > %.2f)",
				row.Alpha, row.PoolSim, row.PoolSimErr, row.PoolAnalytic, diff/row.PoolSimErr, tol))
		}
	}
	return bad
}

// checkSameRows checks that warm rows are bit-identical to the cold rows
// the journal was written from. Deterministic: false-failure probability 0.
func checkSameRows(got, want []experiments.Fig8Row) []string {
	if len(got) != len(want) {
		return []string{fmt.Sprintf("warm sweep has %d rows, cold sweep %d", len(got), len(want))}
	}
	var bad []string
	for i := range got {
		if got[i] != want[i] {
			bad = append(bad, fmt.Sprintf("row %d (alpha=%.3f) differs from the cold sweep", i, want[i].Alpha))
		}
	}
	return bad
}

// coldStats checks a cold sweep's cache traffic: every row missed and
// stored once. Deterministic: false-failure probability 0.
func coldStats(st resultcache.Stats, rows int) []string {
	if st.Misses != uint64(rows) || st.Stores != uint64(rows) || st.Hits() != 0 {
		return []string{fmt.Sprintf("cold sweep cache stats %+v, want %d misses and stores", st, rows)}
	}
	return nil
}

// warmStats checks a warm sweep's cache traffic: every row a disk hit, no
// miss and no store. Deterministic: false-failure probability 0.
func warmStats(st resultcache.Stats, rows int) []string {
	if st.Misses != 0 || st.DiskHits != uint64(rows) || st.Stores != 0 {
		return []string{fmt.Sprintf("warm sweep cache stats %+v, want %d disk hits and no misses or stores", st, rows)}
	}
	return nil
}

// Chain-run check constants.
const (
	// shareSigmas bounds the selfish event share: EventsByPool[1] is
	// Binomial(blocks, alpha), so |share - alpha| beyond 6 standard
	// deviations has probability 2e-9 per op.
	shareSigmas = 6.0

	// rateTolerance bounds |Steady.TotalRate - PredictedRewardRate| /
	// PredictedRewardRate. At alpha=0.35, gamma=0.5 the simulated steady
	// rate sits 0.44% above the closed form (0.9618 against 0.9576) with a
	// run-to-run standard deviation of 0.00014 over 24 seeds of 1M
	// blocks; the 1% tolerance leaves 0.0054 of margin, about 38 standard
	// deviations, so the false-failure probability per op is below 1e-12
	// under a normal tail. At the self-test's 30k blocks the deviation is
	// about 6x wider and the margin still exceeds 6 standard deviations.
	rateTolerance = 0.01
)

// checkChainRun checks one chain-1m-eip100 result:
//   - block-count conservation: every simulated event minted one block,
//     and every block is regular, uncle or stale (deterministic, false-
//     failure probability 0);
//   - the selfish event share within shareSigmas binomial standard
//     deviations of alpha (false-failure probability 2e-9);
//   - the steady total reward rate within rateTolerance of the EIP100
//     closed form (false-failure probability below 1e-12).
func checkChainRun(res *sim.Result, blocks int, alpha, predicted float64) []string {
	var bad []string
	if got := res.RegularCount + res.UncleCount + res.StaleCount; got != blocks {
		bad = append(bad, fmt.Sprintf("regular+uncle+stale = %d, want %d blocks", got, blocks))
	}
	var events int64
	for _, n := range res.EventsByPool {
		events += n
	}
	if events != int64(blocks) || len(res.EventsByPool) != 2 {
		bad = append(bad, fmt.Sprintf("events by pool %v do not sum to %d", res.EventsByPool, blocks))
		return bad
	}
	share := float64(res.EventsByPool[1]) / float64(blocks)
	if sd := math.Sqrt(alpha * (1 - alpha) / float64(blocks)); !(math.Abs(share-alpha) <= shareSigmas*sd) {
		bad = append(bad, fmt.Sprintf("selfish event share %.6f is %.1f sd from alpha %.2f", share, math.Abs(share-alpha)/sd, alpha))
	}
	rate := res.Steady.TotalRate()
	if !(math.Abs(rate-predicted) <= rateTolerance*predicted) {
		bad = append(bad, fmt.Sprintf("steady total rate %.5f vs EIP100 closed form %.5f (tolerance %.0f%%)", rate, predicted, 100*rateTolerance))
	}
	return bad
}
