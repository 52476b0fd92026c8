package coloring

import (
	"sort"

	"repro/internal/model"
)

// The map-based solvers the dense kernel replaced, kept as the oracles
// TestKernelEquivalenceNAS, TestFastColorIsLowerBoundProperty and
// BenchmarkFastColorMapReference compare against.

// fastColorRef is Fast_Color over a clique list and a flow-set map: the
// maximum number of flows the set shares with any one clique.
func fastColorRef(cliques []model.Clique, flows map[model.Flow]bool) int {
	best := 0
	for _, c := range cliques {
		n := 0
		for _, f := range c {
			if flows[f] {
				n++
			}
		}
		if n > best {
			best = n
		}
	}
	return best
}

// contentionRef expands a clique set into its pairwise contention set C.
func contentionRef(cliques []model.Clique) map[model.FlowPair]bool {
	c := make(map[model.FlowPair]bool)
	for _, k := range cliques {
		for i := 0; i < len(k); i++ {
			for j := i + 1; j < len(k); j++ {
				c[model.MakeFlowPair(k[i], k[j])] = true
			}
		}
	}
	return c
}

// buildConflictGraphRef constructs the conflict graph over the given flows
// with an edge wherever C marks the pair as potentially colliding.
func buildConflictGraphRef(flows []model.Flow, c map[model.FlowPair]bool) *ConflictGraph {
	fs := append([]model.Flow(nil), flows...)
	sort.Slice(fs, func(i, j int) bool { return fs[i].Less(fs[j]) })
	g := newGraph(fs)
	for i := 0; i < len(fs); i++ {
		for j := i + 1; j < len(fs); j++ {
			if c[model.MakeFlowPair(fs[i], fs[j])] {
				g.addEdge(i, j)
			}
		}
	}
	return g
}
