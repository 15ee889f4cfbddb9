// Command ethsim runs the event-driven selfish-mining simulator for one
// configuration and prints the settled revenue summary next to the analytic
// prediction.
//
// Example:
//
//	ethsim -alpha 0.35 -gamma 0.5 -blocks 100000 -runs 10
//	ethsim -alpha 0.3 -gamma 0.5 -ku 0.5 -maxdepth 0 -miners 1000
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/ethselfish/ethselfish"
	"github.com/ethselfish/ethselfish/internal/mining"
	"github.com/ethselfish/ethselfish/internal/rewards"
	"github.com/ethselfish/ethselfish/internal/sim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ethsim:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("ethsim", flag.ContinueOnError)
	var (
		alpha      = fs.Float64("alpha", 0.3, "selfish pool hash-power share (0, 0.5)")
		gamma      = fs.Float64("gamma", 0.5, "honest tie-break fraction toward the pool [0, 1]")
		blocks     = fs.Int("blocks", 100000, "block events per run")
		runs       = fs.Int("runs", 10, "independent runs")
		seed       = fs.Uint64("seed", 1, "RNG seed")
		ku         = fs.Float64("ku", -1, "flat uncle reward (fraction of Ks); negative selects Ethereum's Ku(.)")
		maxDepth   = fs.Int("maxdepth", 6, "uncle reference depth limit; 0 means unlimited")
		uncleLimit = fs.Int("uncles", 0, "max uncles per block; 0 means unlimited (Ethereum: 2)")
		miners     = fs.Int("miners", 0, "simulate n equal miners instead of two aggregate agents")
		dump       = fs.String("dump", "", "write one run's full block tree as JSON to this file")
		strategy   = fs.String("strategy", "algorithm1", "pool strategy spec: algorithm1, honest, stubborn:lead=L,fork=F,trail=T, eager-publish:lead=k (see `ethselfish -list`)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	schedule := ethselfish.EthereumSchedule()
	if *ku >= 0 {
		depth := *maxDepth
		if depth == 0 {
			depth = ethselfish.NoDepthLimit
		}
		var err error
		schedule, err = ethselfish.ConstantSchedule(*ku, depth)
		if err != nil {
			return err
		}
	}

	opts := []ethselfish.Option{
		ethselfish.WithSchedule(schedule),
		ethselfish.WithSeed(*seed),
		ethselfish.WithRuns(*runs),
		ethselfish.WithUncleLimit(*uncleLimit),
		ethselfish.WithStrategy(*strategy),
	}
	if *miners > 0 {
		opts = append(opts, ethselfish.WithMiners(*miners))
	}
	result, err := ethselfish.Simulate(*alpha, *gamma, *blocks, opts...)
	if err != nil {
		return err
	}
	if *dump != "" {
		cfg := sim.Config{
			Gamma:             *gamma,
			Blocks:            *blocks,
			Seed:              sim.DeriveSeed(*seed, 0),
			MaxUnclesPerBlock: *uncleLimit,
		}
		if err := dumpTrace(*dump, cfg, *alpha, *miners, *strategy, *ku, *maxDepth); err != nil {
			return fmt.Errorf("dumping trace: %w", err)
		}
		fmt.Fprintf(w, "trace written to %s\n", *dump)
	}
	analysis, err := ethselfish.Analyze(result.Alpha, *gamma, ethselfish.WithSchedule(schedule))
	if err != nil {
		return err
	}
	rev := analysis.Revenue()

	fmt.Fprintf(w, "selfish mining simulation: alpha=%.4f gamma=%.2f strategy=%s, %d runs x %d blocks\n",
		result.Alpha, *gamma, *strategy, result.Runs, result.BlocksPerRun)
	fmt.Fprintf(w, "settled blocks: %d regular, %d uncle, %d stale\n",
		result.RegularBlocks, result.UncleBlocks, result.StaleBlocks)
	fmt.Fprintf(w, "%-28s %10s %10s\n", "", "simulated", "analytic")
	fmt.Fprintf(w, "%-28s %10.4f %10.4f\n", "pool revenue (scenario 1)", result.PoolRevenue, rev.Pool(ethselfish.Scenario1))
	fmt.Fprintf(w, "%-28s %10.4f %10.4f\n", "honest revenue (scenario 1)", result.HonestRevenue, rev.Honest(ethselfish.Scenario1))
	fmt.Fprintf(w, "%-28s %10.4f %10.4f\n", "pool revenue (scenario 2)", result.PoolRevenueScenario2, rev.Pool(ethselfish.Scenario2))
	fmt.Fprintf(w, "%-28s %10.4f %10.4f\n", "honest revenue (scenario 2)", result.HonestRevenueScenario2, rev.Honest(ethselfish.Scenario2))
	fmt.Fprintf(w, "pool revenue std err: %.5f\n", result.PoolRevenueStdErr)
	fmt.Fprintf(w, "honest mining baseline: %.4f\n", result.Alpha)

	fmt.Fprintf(w, "honest uncle distances (1..6):")
	analytic := rev.UncleDistances(6)
	for d, p := range result.UncleDistances {
		fmt.Fprintf(w, " %d:%.3f(%.3f)", d+1, p, analytic[d])
	}
	fmt.Fprintln(w)
	return nil
}

// dumpTrace re-runs run 0 of the batch the summary reports, seeded as
// ethselfish.Simulate's sim.RunMany seeds it (cfg.Seed), and writes its block
// tree as JSON. It rebuilds the population (ethselfish.WithMiners gives the
// pool floor(n*alpha) of n equal miners), the strategy and the schedule from
// the same flags the summary used; cfg carries the rest.
func dumpTrace(path string, cfg sim.Config, alpha float64, miners int, strategy string, ku float64, maxDepth int) error {
	var err error
	if miners > 0 {
		cfg.Population, err = mining.Equal(miners, int(float64(miners)*alpha))
	} else {
		cfg.Population, err = mining.TwoAgent(alpha)
	}
	if err != nil {
		return err
	}
	if cfg.Strategy, err = sim.ParseStrategy(strategy); err != nil {
		return err
	}
	cfg.Schedule = rewards.Ethereum()
	if ku >= 0 {
		depth := maxDepth
		if depth == 0 {
			depth = rewards.NoDepthLimit
		}
		if cfg.Schedule, err = rewards.Constant(ku, depth); err != nil {
			return err
		}
	}
	_, tree, err := sim.RunTrace(cfg)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := tree.Encode(f); err != nil {
		return err
	}
	return f.Close()
}
