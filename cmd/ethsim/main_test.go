package main

import (
	"os"
	"strings"
	"testing"

	"github.com/ethselfish/ethselfish/internal/chain"
)

func TestRunDefaultsQuick(t *testing.T) {
	var b strings.Builder
	err := run([]string{"-alpha", "0.3", "-blocks", "20000", "-runs", "2"}, &b)
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"pool revenue (scenario 1)", "honest uncle distances", "settled blocks"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunFlatSchedule(t *testing.T) {
	var b strings.Builder
	err := run([]string{"-alpha", "0.2", "-ku", "0.5", "-maxdepth", "0",
		"-blocks", "10000", "-runs", "1"}, &b)
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunBadFlags(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-alpha", "0.7", "-blocks", "100", "-runs", "1"}, &b); err == nil {
		t.Error("alpha=0.7 should fail")
	}
	if err := run([]string{"-ku", "-0.5", "-bogus"}, &b); err == nil {
		t.Error("bogus flag should fail")
	}
}

func TestRunStrategyFlag(t *testing.T) {
	var b strings.Builder
	err := run([]string{"-alpha", "0.3", "-blocks", "5000", "-runs", "1",
		"-strategy", "trail-stubborn"}, &b)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "strategy=trail-stubborn") {
		t.Errorf("output missing strategy name:\n%s", b.String())
	}
	if err := run([]string{"-strategy", "bogus", "-blocks", "100", "-runs", "1"}, &b); err == nil {
		t.Error("bogus strategy should fail")
	}
}

// dumpTree runs ethsim with args plus -dump and decodes the written tree.
func dumpTree(t *testing.T, args ...string) *chain.Tree {
	t.Helper()
	path := t.TempDir() + "/trace.json"
	var b strings.Builder
	if err := run(append(args, "-dump", path), &b); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tree, err := chain.Decode(f)
	if err != nil {
		t.Fatalf("decoding dumped trace: %v", err)
	}
	return tree
}

func TestRunDumpTrace(t *testing.T) {
	if tree := dumpTree(t, "-alpha", "0.3", "-blocks", "2000", "-runs", "1"); tree.Len() < 1000 {
		t.Errorf("trace has only %d blocks", tree.Len())
	}
	// The dump is run 0 of the summarized batch, so it honours -strategy
	// and -miners: an honest pool never forks the chain, and 50 equal
	// miners mine under IDs a two-agent population does not have.
	honest := dumpTree(t, "-alpha", "0.35", "-strategy", "honest", "-runs", "1", "-blocks", "3000")
	for id := chain.BlockID(0); int(id) < honest.Len(); id++ {
		if uncles := honest.UnclesOf(id); len(uncles) != 0 {
			t.Fatalf("honest dump: block %d references uncles %v", id, uncles)
		}
	}
	miners := dumpTree(t, "-alpha", "0.3", "-miners", "50", "-runs", "1", "-blocks", "3000")
	maxMiner := chain.MinerID(0)
	for id := chain.BlockID(1); int(id) < miners.Len(); id++ {
		maxMiner = max(maxMiner, miners.Block(id).Miner)
	}
	if maxMiner <= 2 {
		t.Errorf("-miners 50 dump: highest miner ID %d, want one above 2", maxMiner)
	}
}
