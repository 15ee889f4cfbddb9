package sim

import (
	"testing"

	"github.com/ethselfish/ethselfish/internal/chain"
	"github.com/ethselfish/ethselfish/internal/rng"
)

// TestChainViewMoves drives a chain view across a random branching tree —
// extensions, branch switches, moves down and back up onto a branch it
// held before — and checks every held entry against the tree's ancestry
// after each move, with the held range always reaching a full ring (or
// genesis) below the tip.
func TestChainViewMoves(t *testing.T) {
	for _, size := range []int{2, 8, 16} {
		tree := chain.NewTree(chain.Config{}, genesisMiner)
		r := rng.New(uint64(size))
		var v chainView
		v.reset(size, tree.Genesis())
		for i := 0; i < 3000; i++ {
			// Grow on a random recent block, so branches fork and die.
			parent := chain.BlockID(max(0, tree.Len()-1-r.Intn(12)))
			if _, err := tree.Extend(parent, 1, nil); err != nil {
				t.Fatal(err)
			}
			tip := chain.BlockID(max(0, tree.Len()-1-r.Intn(24)))
			v.moveTo(tree, tip)
			if v.tip != tip || v.top != tree.HeightOf(tip) || v.lo != max(0, v.top-size+1) {
				t.Fatalf("size %d move %d: view (tip %d, lo %d, top %d), want tip %d at height %d",
					size, i, v.tip, v.lo, v.top, tip, tree.HeightOf(tip))
			}
			for h := v.lo; h <= v.top; h++ {
				if got, want := v.at(h), tree.AncestorAt(tip, h); got != want {
					t.Fatalf("size %d move %d: height %d holds %d, want %d", size, i, h, got, want)
				}
			}
		}
	}
}
