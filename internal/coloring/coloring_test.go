package coloring

import (
	"math/rand"
	"testing"

	"repro/internal/model"
)

// flowsN builds n distinct flows (i, i+100).
func flowsN(n int) []model.Flow {
	fs := make([]model.Flow, n)
	for i := range fs {
		fs[i] = model.F(i, i+100)
	}
	return fs
}

// graphOf builds the conflict graph over all of fs (distinct flows) with an
// edge for every index pair in edges, through the dense production path.
func graphOf(fs []model.Flow, edges [][2]int) *ConflictGraph {
	ix := model.NewFlowIndex(fs)
	return BuildConflictGraphBits(ix.Bits(fs), relation(ix, fs, edges))
}

// relation builds C over ix with an edge for every index pair (into fs) in
// edges.
func relation(ix *model.FlowIndex, fs []model.Flow, edges [][2]int) *model.ConflictMatrix {
	cm := model.NewConflictMatrix(ix)
	for _, e := range edges {
		i, _ := ix.ID(fs[e[0]])
		j, _ := ix.ID(fs[e[1]])
		cm.Add(i, j)
	}
	return cm
}

// complete lists every index pair of an n-clique.
func complete(n int) [][2]int {
	var edges [][2]int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			edges = append(edges, [2]int{i, j})
		}
	}
	return edges
}

func TestBuildConflictGraph(t *testing.T) {
	fs := flowsN(4)
	g := graphOf(fs, [][2]int{{0, 1}, {2, 3}})
	if g.N() != 4 || g.Edges() != 2 {
		t.Fatalf("graph: n=%d e=%d", g.N(), g.Edges())
	}
	// Vertices are sorted; find indices by flow.
	idx := map[model.Flow]int{}
	for i, f := range g.Flows {
		idx[f] = i
	}
	if !g.Edge(idx[fs[0]], idx[fs[1]]) || g.Edge(idx[fs[0]], idx[fs[2]]) {
		t.Fatal("wrong adjacency")
	}
	// A member subset keeps only the edges among its flows.
	ix := model.NewFlowIndex(fs)
	sub := BuildConflictGraphBits(ix.Bits(fs[1:]), relation(ix, fs, [][2]int{{0, 1}, {2, 3}}))
	if sub.N() != 3 || sub.Edges() != 1 || sub.Flows[0] != fs[1] {
		t.Fatalf("subset graph: n=%d e=%d flows=%v", sub.N(), sub.Edges(), sub.Flows)
	}
}

func TestGreedyOnCompleteGraph(t *testing.T) {
	fs := flowsN(5)
	g := graphOf(fs, complete(5))
	k, assign := g.Greedy()
	if k != 5 {
		t.Fatalf("K5 greedy colors = %d, want 5", k)
	}
	checkProper(t, g, assign)
}

func TestGreedyOnEmptyGraph(t *testing.T) {
	fs := flowsN(6)
	g := graphOf(fs, nil)
	k, assign := g.Greedy()
	if k != 1 {
		t.Fatalf("edgeless graph colors = %d, want 1", k)
	}
	checkProper(t, g, assign)
}

func TestGreedyZeroVertices(t *testing.T) {
	g := graphOf(nil, nil)
	if k, _ := g.Greedy(); k != 0 {
		t.Fatalf("empty graph colors = %d", k)
	}
	if k, _, exact := g.Exact(); k != 0 || !exact {
		t.Fatalf("empty graph exact = %d", k)
	}
}

func TestExactOddCycle(t *testing.T) {
	// C5 needs 3 colors; DSATUR may also find 3, but exact must prove it.
	fs := flowsN(5)
	var c [][2]int
	for i := 0; i < 5; i++ {
		c = append(c, [2]int{i, (i + 1) % 5})
	}
	g := graphOf(fs, c)
	k, assign, exact := g.Exact()
	if k != 3 || !exact {
		t.Fatalf("C5 chromatic = %d (exact=%v), want 3", k, exact)
	}
	checkProper(t, g, assign)
}

func TestExactBipartite(t *testing.T) {
	// K3,3 is 2-chromatic; greedy may or may not see it, exact must.
	fs := flowsN(6)
	var c [][2]int
	for i := 0; i < 3; i++ {
		for j := 3; j < 6; j++ {
			c = append(c, [2]int{i, j})
		}
	}
	g := graphOf(fs, c)
	k, assign, exact := g.Exact()
	if k != 2 || !exact {
		t.Fatalf("K3,3 chromatic = %d (exact=%v), want 2", k, exact)
	}
	checkProper(t, g, assign)
}

func checkProper(t *testing.T, g *ConflictGraph, assign []int) {
	t.Helper()
	for i := 0; i < g.N(); i++ {
		if assign[i] < 0 {
			t.Fatalf("vertex %d uncolored", i)
		}
		for j := i + 1; j < g.N(); j++ {
			if g.Edge(i, j) && assign[i] == assign[j] {
				t.Fatalf("improper coloring: %d and %d share color %d", i, j, assign[i])
			}
		}
	}
}

// fastColorOf runs FastColorBits for the pipe flows against the cliques
// over one index of universe.
func fastColorOf(universe []model.Flow, cliques []model.Clique, pipe []model.Flow) int {
	ix := model.NewFlowIndex(universe)
	return FastColorBits(ix.CliqueBits(cliques), ix.Bits(pipe))
}

func TestFastColor(t *testing.T) {
	k1 := model.NewClique(model.F(0, 1), model.F(2, 3), model.F(4, 5))
	k2 := model.NewClique(model.F(0, 1), model.F(6, 7))
	universe := model.CliqueFlows([]model.Clique{k1, k2})
	pipe := []model.Flow{model.F(0, 1), model.F(2, 3), model.F(6, 7)}
	if got := fastColorOf(universe, []model.Clique{k1, k2}, pipe); got != 2 {
		t.Fatalf("FastColor = %d, want 2", got)
	}
	if got := fastColorOf(universe, nil, pipe); got != 0 {
		t.Fatalf("FastColor with no cliques = %d", got)
	}
	if got := fastColorOf(universe, []model.Clique{k1}, nil); got != 0 {
		t.Fatalf("FastColor with empty pipe = %d", got)
	}
}

// TestFastColorPipeTakesMax checks Section 3.1's pipe estimate: a pipe needs
// the larger of its two directions' Fast_Color counts, and formal coloring
// of both directions agrees on this instance.
func TestFastColorPipeTakesMax(t *testing.T) {
	k := model.NewClique(model.F(0, 1), model.F(2, 3), model.F(4, 5))
	ix := model.NewFlowIndex(k)
	kb := ix.CliqueBits([]model.Clique{k})
	cm := model.ConflictMatrixFromCliques(ix, []model.Clique{k})
	fwd := ix.Bits([]model.Flow{model.F(0, 1)})
	bwd := ix.Bits([]model.Flow{model.F(2, 3), model.F(4, 5)})
	pipe := func(a, b model.BitSet) (fast, exact int) {
		fast = max(FastColorBits(kb, a), FastColorBits(kb, b))
		colorsA, _, _ := ColorPipeDirectionBits(a, cm)
		colorsB, _, _ := ColorPipeDirectionBits(b, cm)
		return fast, max(colorsA, colorsB)
	}
	if fast, exact := pipe(fwd, bwd); fast != 2 || exact != 2 {
		t.Fatalf("pipe fast/formal = %d/%d, want 2/2", fast, exact)
	}
	if fast, exact := pipe(bwd, fwd); fast != 2 || exact != 2 {
		t.Fatalf("pipe fast/formal (swapped) = %d/%d, want 2/2", fast, exact)
	}
}

// The paper's key property: Fast_Color is a lower bound on the chromatic
// number of the conflict graph, and often tight. Verify the bound over
// random clique structures; also sanity-check greedy as an upper bound.
func TestFastColorIsLowerBoundProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	tight := 0
	const trials = 200
	for trial := 0; trial < trials; trial++ {
		universe := flowsN(10)
		var cliques []model.Clique
		for i := 0; i < 4; i++ {
			var members []model.Flow
			for _, f := range universe {
				if rng.Intn(3) == 0 {
					members = append(members, f)
				}
			}
			cliques = append(cliques, model.NewClique(members...))
		}
		cliques = model.MaxCliques(cliques)
		// Pipe: random subset.
		pipeFlows := map[model.Flow]bool{}
		var pipeList []model.Flow
		for _, f := range universe {
			if rng.Intn(2) == 0 {
				pipeFlows[f] = true
				pipeList = append(pipeList, f)
			}
		}
		ix := model.NewFlowIndex(universe)
		pipe := ix.Bits(pipeList)
		lb := FastColorBits(ix.CliqueBits(cliques), pipe)
		g := BuildConflictGraphBits(pipe, model.ConflictMatrixFromCliques(ix, cliques))
		if ref := fastColorRef(cliques, pipeFlows); lb != ref {
			t.Fatalf("trial %d: FastColorBits %d, map oracle %d", trial, lb, ref)
		}
		sameGraph(t, g, buildConflictGraphRef(pipeList, contentionRef(cliques)))
		chrom, assign, exact := g.Exact()
		if !exact {
			t.Fatalf("trial %d: exact coloring exhausted on a 10-vertex graph", trial)
		}
		checkProper(t, g, assign)
		if lb > chrom {
			t.Fatalf("trial %d: FastColor %d exceeds chromatic number %d", trial, lb, chrom)
		}
		gk, _ := g.Greedy()
		if gk < chrom {
			t.Fatalf("trial %d: greedy %d below chromatic %d", trial, gk, chrom)
		}
		if lb == chrom {
			tight++
		}
	}
	// "Close lower bound": tight in the large majority of cases.
	if tight*10 < trials*7 {
		t.Errorf("FastColor tight in only %d/%d trials", tight, trials)
	}
}

func TestExactMatchesBruteForceSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(5)
		fs := flowsN(n)
		var c [][2]int
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Intn(2) == 0 {
					c = append(c, [2]int{i, j})
				}
			}
		}
		g := graphOf(fs, c)
		k, assign, exact := g.Exact()
		if !exact {
			t.Fatalf("budget exhausted on %d vertices", n)
		}
		checkProper(t, g, assign)
		if bf := bruteChromatic(g); bf != k {
			t.Fatalf("trial %d: exact=%d brute=%d", trial, k, bf)
		}
	}
}

func bruteChromatic(g *ConflictGraph) int {
	n := g.N()
	for k := 1; k <= n; k++ {
		assign := make([]int, n)
		if bruteTry(g, assign, 0, k) {
			return k
		}
	}
	return n
}

func bruteTry(g *ConflictGraph, assign []int, v, k int) bool {
	if v == g.N() {
		return true
	}
	for c := 1; c <= k; c++ {
		ok := true
		for u := 0; u < v; u++ {
			if g.Edge(u, v) && assign[u] == c {
				ok = false
				break
			}
		}
		if ok {
			assign[v] = c
			if bruteTry(g, assign, v+1, k) {
				return true
			}
		}
	}
	assign[v] = 0
	return false
}

func TestColorPipeDirection(t *testing.T) {
	fs := flowsN(4)
	ix := model.NewFlowIndex(fs)
	c := relation(ix, fs, complete(3)) // first three mutually conflict
	k, assign, exact := ColorPipeDirectionBits(ix.Bits(fs), c)
	if k != 3 || !exact {
		t.Fatalf("k=%d exact=%v, want 3", k, exact)
	}
	if len(assign) != 4 {
		t.Fatalf("assignment size %d", len(assign))
	}
	seen := map[int]bool{}
	for _, f := range fs[:3] {
		col := assign[f]
		if col < 0 || col >= 3 || seen[col] {
			t.Fatalf("bad assignment %v", assign)
		}
		seen[col] = true
	}
}

// sameGraph requires two conflict graphs to have identical vertices, edges
// and degrees.
func sameGraph(t *testing.T, got, want *ConflictGraph) {
	t.Helper()
	if got.N() != want.N() {
		t.Fatalf("graph has %d vertices, oracle %d", got.N(), want.N())
	}
	for i, f := range got.Flows {
		if f != want.Flows[i] || got.degree[i] != want.degree[i] || !got.adj[i].Equal(want.adj[i]) {
			t.Fatalf("vertex %d (%v) differs from the oracle", i, f)
		}
	}
}
