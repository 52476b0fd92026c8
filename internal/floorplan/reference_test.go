package floorplan

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/collective"
	"repro/internal/model"
	"repro/internal/nas"
	"repro/internal/synth"
	"repro/internal/topology"
)

// This file keeps the map-based placer that preceded the flat-array one in
// floorplan.go, unchanged except for its names, as the oracle
// TestPlaceMatchesReference and the BenchmarkPlace*Reference twins run
// against. Its searches never draw from the rng they are given, so every
// restart repeats the first and only the first can win the strict <.

// referencePlace runs the map-based placer: restarts independent searches,
// keeping the first strictly cheapest. The network must already be valid
// and fit its corner lattice.
func referencePlace(net *topology.Network, opt Options, restarts int) *Plan {
	opt = opt.Normalized()
	rows, cols := topology.GridDims(net.Procs)
	var best *refPlacement
	for r := 0; r < restarts; r++ {
		pl := newRefPlacement(net, rows, cols, rand.New(rand.NewSource(opt.Seed+int64(r)*104729)))
		pl.optimize(opt.Sweeps)
		if best == nil || pl.cost() < best.cost() {
			best = pl
		}
	}
	return best.plan()
}

// refPlacement is the mutable search state of the map-based placer.
type refPlacement struct {
	net        *topology.Network
	rows, cols int
	rng        *rand.Rand
	swPos      []Point // per switch
	posUsed    map[Point]topology.SwitchID
	procTile   []Point // per proc
	tileUsed   map[Point]int
}

func newRefPlacement(net *topology.Network, rows, cols int, rng *rand.Rand) *refPlacement {
	pl := &refPlacement{
		net:      net,
		rows:     rows,
		cols:     cols,
		rng:      rng,
		swPos:    make([]Point, net.NumSwitches()),
		posUsed:  make(map[Point]topology.SwitchID),
		procTile: make([]Point, net.Procs),
		tileUsed: make(map[Point]int),
	}
	// Initial switch placement: greedy BFS from the highest-degree
	// switch, each next switch at the free corner minimizing cost to its
	// already-placed neighbors.
	order := pl.bfsOrder()
	placed := make([]bool, net.NumSwitches())
	for _, sw := range order {
		bestP := Point{-1, -1}
		bestCost := 1 << 30
		for r := 0; r <= rows; r++ {
			for c := 0; c <= cols; c++ {
				p := Point{r, c}
				if _, used := pl.posUsed[p]; used {
					continue
				}
				cost := 0
				for _, nb := range pl.net.Neighbors(sw) {
					if placed[nb] {
						w := 1
						if pipe, ok2 := pl.net.PipeBetween(sw, nb); ok2 {
							w = pipe.Width
						}
						cost += w * linkCost(p, pl.swPos[nb])
					}
				}
				if cost < bestCost {
					bestCost = cost
					bestP = p
				}
			}
		}
		pl.setSwitch(sw, bestP)
		placed[sw] = true
	}
	// Initial processor placement: adjacent free tile when possible.
	for p := 0; p < net.Procs; p++ {
		home := net.Home[p]
		tile := pl.bestTileFor(home)
		pl.setProc(p, tile)
	}
	return pl
}

func (pl *refPlacement) bfsOrder() []topology.SwitchID {
	n := pl.net.NumSwitches()
	start := topology.SwitchID(0)
	bestDeg := -1
	for sw := 0; sw < n; sw++ {
		if d := pl.net.Degree(topology.SwitchID(sw)); d > bestDeg {
			bestDeg = d
			start = topology.SwitchID(sw)
		}
	}
	visited := make([]bool, n)
	order := []topology.SwitchID{start}
	visited[start] = true
	for i := 0; i < len(order); i++ {
		for _, nb := range pl.net.Neighbors(order[i]) {
			if !visited[nb] {
				visited[nb] = true
				order = append(order, nb)
			}
		}
	}
	for sw := 0; sw < n; sw++ {
		if !visited[sw] {
			visited[sw] = true
			order = append(order, topology.SwitchID(sw))
		}
	}
	return order
}

func (pl *refPlacement) setSwitch(sw topology.SwitchID, p Point) {
	old := pl.swPos[sw]
	if pl.posUsed[old] == sw {
		delete(pl.posUsed, old)
	}
	pl.swPos[sw] = p
	pl.posUsed[p] = sw
}

func (pl *refPlacement) setProc(proc int, tile Point) {
	old := pl.procTile[proc]
	if pl.tileUsed[old] == proc+1 {
		delete(pl.tileUsed, old)
	}
	pl.procTile[proc] = tile
	pl.tileUsed[tile] = proc + 1
}

// bestTileFor returns the free tile minimizing distance to the switch's
// corner.
func (pl *refPlacement) bestTileFor(sw topology.SwitchID) Point {
	best := Point{-1, -1}
	bestCost := 1 << 30
	for r := 0; r < pl.rows; r++ {
		for c := 0; c < pl.cols; c++ {
			tile := Point{r, c}
			if pl.tileUsed[tile] != 0 {
				continue
			}
			cost := refProcCost(tile, pl.swPos[sw])
			if cost < bestCost {
				bestCost = cost
				best = tile
			}
		}
	}
	return best
}

// procCost is the tiles crossed by the wire from a tile's NI to the
// switch's corner: zero when the switch sits on one of the tile's corners.
func refProcCost(tile, sw Point) int {
	best := 1 << 30
	for _, corner := range []Point{
		{tile.R, tile.C}, {tile.R, tile.C + 1}, {tile.R + 1, tile.C}, {tile.R + 1, tile.C + 1},
	} {
		if d := manhattan(corner, sw); d < best {
			best = d
		}
	}
	return best
}

func (pl *refPlacement) linkArea() int {
	total := 0
	for _, pipe := range pl.net.Pipes {
		total += pipe.Width * linkCost(pl.swPos[pipe.A], pl.swPos[pipe.B])
	}
	return total
}

func (pl *refPlacement) procArea() int {
	total := 0
	for p := 0; p < pl.net.Procs; p++ {
		total += refProcCost(pl.procTile[p], pl.swPos[pl.net.Home[p]])
	}
	return total
}

// cost prioritizes processor adjacency (the paper's tiling always places a
// tile's NI on a corner its switch occupies), then link area.
func (pl *refPlacement) cost() int { return pl.procArea()*1024 + pl.linkArea() }

// adjacentTiles lists the tiles touching a corner point, in grid range.
func (pl *refPlacement) adjacentTiles(pt Point) []Point {
	var out []Point
	for _, t := range []Point{{pt.R - 1, pt.C - 1}, {pt.R - 1, pt.C}, {pt.R, pt.C - 1}, {pt.R, pt.C}} {
		if t.R >= 0 && t.R < pl.rows && t.C >= 0 && t.C < pl.cols {
			out = append(out, t)
		}
	}
	return out
}

// reassignProcs reassigns all processor tiles from scratch. Adjacency
// (every processor on a tile touching its switch's corner) is a bipartite
// matching problem, solved exactly with augmenting paths; processors the
// matching cannot place adjacently fall back to the nearest free tile.
func (pl *refPlacement) reassignProcs() {
	for p := range pl.procTile {
		if pl.tileUsed[pl.procTile[p]] == p+1 {
			delete(pl.tileUsed, pl.procTile[p])
		}
	}
	matchTile := make(map[Point]int) // tile -> proc+1
	matchProc := make([]Point, pl.net.Procs)
	for i := range matchProc {
		matchProc[i] = Point{-1, -1}
	}
	var augment func(p int, visited map[Point]bool) bool
	augment = func(p int, visited map[Point]bool) bool {
		for _, t := range pl.adjacentTiles(pl.swPos[pl.net.Home[p]]) {
			if visited[t] {
				continue
			}
			visited[t] = true
			holder := matchTile[t] - 1
			if holder < 0 || augment(holder, visited) {
				matchTile[t] = p + 1
				matchProc[p] = t
				return true
			}
		}
		return false
	}
	for p := 0; p < pl.net.Procs; p++ {
		augment(p, make(map[Point]bool))
	}
	// Commit matched processors, then place the rest greedily.
	for p := 0; p < pl.net.Procs; p++ {
		if matchProc[p].R >= 0 {
			pl.setProc(p, matchProc[p])
		}
	}
	for p := 0; p < pl.net.Procs; p++ {
		if matchProc[p].R < 0 {
			pl.setProc(p, pl.bestTileFor(pl.net.Home[p]))
		}
	}
}

// snapshotTiles and restoreTiles save and restore the processor assignment.
func (pl *refPlacement) snapshotTiles() []Point { return append([]Point(nil), pl.procTile...) }

func (pl *refPlacement) restoreTiles(tiles []Point) {
	for p := range pl.procTile {
		if pl.tileUsed[pl.procTile[p]] == p+1 {
			delete(pl.tileUsed, pl.procTile[p])
		}
	}
	for p, tile := range tiles {
		pl.setProc(p, tile)
	}
}

// costReassigned evaluates the cost the current switch placement would have
// with processors reassigned from scratch, leaving the placement unchanged.
func (pl *refPlacement) costReassigned() int {
	saved := pl.snapshotTiles()
	pl.reassignProcs()
	c := pl.cost()
	pl.restoreTiles(saved)
	return c
}

// optimize runs improvement sweeps: switch relocations and swaps — each
// evaluated with processors re-placed, since a switch move is only as good
// as the tiles its processors can then claim — followed by processor-level
// refinement. Strict improvements are committed.
func (pl *refPlacement) optimize(sweeps int) {
	for sweep := 0; sweep < sweeps; sweep++ {
		improved := false
		for sw := 0; sw < pl.net.NumSwitches(); sw++ {
			id := topology.SwitchID(sw)
			cur := pl.costReassigned()
			oldPos := pl.swPos[id]
			bestPos := oldPos
			bestCost := cur
			for r := 0; r <= pl.rows; r++ {
				for c := 0; c <= pl.cols; c++ {
					p := Point{r, c}
					if _, used := pl.posUsed[p]; used {
						continue
					}
					pl.setSwitch(id, p)
					if cost := pl.costReassigned(); cost < bestCost {
						bestCost = cost
						bestPos = p
					}
				}
			}
			pl.setSwitch(id, bestPos)
			if bestPos != oldPos {
				improved = true
			}
			// Swaps with other switches.
			for other := sw + 1; other < pl.net.NumSwitches(); other++ {
				oid := topology.SwitchID(other)
				a, b := pl.swPos[id], pl.swPos[oid]
				cur := pl.costReassigned()
				pl.setSwitch(id, Point{-1, -1})
				pl.setSwitch(oid, a)
				pl.setSwitch(id, b)
				if pl.costReassigned() < cur {
					improved = true
				} else {
					pl.setSwitch(id, Point{-1, -2})
					pl.setSwitch(oid, b)
					pl.setSwitch(id, a)
				}
			}
		}
		// Commit the reassignment implied by the final switch layout if
		// it helps, then refine processors individually.
		if saved := pl.snapshotTiles(); true {
			before := pl.cost()
			pl.reassignProcs()
			if pl.cost() < before {
				improved = true
			} else {
				pl.restoreTiles(saved)
			}
		}
		for p := 0; p < pl.net.Procs; p++ {
			cur := pl.cost()
			oldTile := pl.procTile[p]
			tile := pl.bestTileFor(pl.net.Home[p])
			if tile.R >= 0 {
				pl.setProc(p, tile)
				if pl.cost() < cur {
					improved = true
				} else {
					pl.setProc(p, oldTile)
				}
			}
			for q := p + 1; q < pl.net.Procs; q++ {
				cur := pl.cost()
				a, b := pl.procTile[p], pl.procTile[q]
				pl.setProc(p, Point{-1, -1})
				pl.setProc(q, a)
				pl.setProc(p, b)
				if pl.cost() < cur {
					improved = true
				} else {
					pl.setProc(p, Point{-1, -2})
					pl.setProc(q, b)
					pl.setProc(p, a)
				}
			}
		}
		if !improved {
			return
		}
	}
}

func (pl *refPlacement) plan() *Plan {
	return &Plan{
		Rows:         pl.rows,
		Cols:         pl.cols,
		SwitchPos:    append([]Point(nil), pl.swPos...),
		ProcTile:     append([]Point(nil), pl.procTile...),
		SwitchArea:   pl.net.NumSwitches(),
		LinkArea:     pl.linkArea(),
		ProcLinkArea: pl.procArea(),
	}
}

// placeCorpus is the design corpus the flat placer is pinned against: the
// NAS kernels at whichever of 8, 9 and 16 processors they accept and the ring/tree collectives at
// 16, 32 and 64, each synthesized at nocd defaults and at one restart, plus
// seeded random connected networks.
func placeCorpus(t testing.TB) []*topology.Network {
	t.Helper()
	var pats []*model.Pattern
	for _, bench := range []string{"BT", "CG", "FFT", "MG", "SP"} {
		for _, n := range []int{8, 9, 16} {
			p, err := nas.Generate(bench, n, nas.Config{})
			if err != nil {
				continue // BT/SP need a square count, the rest a power of two
			}
			pats = append(pats, p)
		}
	}
	for _, name := range []string{"ring-allreduce", "tree-broadcast"} {
		for _, n := range []int{16, 32, 64} {
			p, err := collective.Generate(name, n, collective.Config{})
			if err != nil {
				t.Fatal(err)
			}
			pats = append(pats, p)
		}
	}
	var nets []*topology.Network
	for _, restarts := range []int{4, 1} {
		opt := synth.Options{
			Constraints: synth.Constraints{MaxDegree: 5, MaxProcsPerSwitch: 4},
			Seed:        1,
			Restarts:    restarts,
		}
		for _, p := range pats {
			res, err := synth.Synthesize(p, opt)
			if err != nil {
				t.Fatalf("%s: %v", p.Name, err)
			}
			nets = append(nets, res.Net)
		}
	}
	for seed := int64(1); seed <= 6; seed++ {
		nets = append(nets, randomNetwork(rand.New(rand.NewSource(seed))))
	}
	return nets
}

// randomNetwork builds a connected network of 2–24 processors: a random
// spanning tree over the switches plus a few extra pipes, widths 1–3, and
// every processor on a random switch.
func randomNetwork(rng *rand.Rand) *topology.Network {
	procs := 2 + rng.Intn(23)
	rows, cols := topology.GridDims(procs)
	switches := 1 + rng.Intn(min(procs, (rows+1)*(cols+1)))
	net := topology.New(fmt.Sprintf("random-%d", procs), procs)
	for i := 0; i < switches; i++ {
		net.AddSwitch()
	}
	for i := 1; i < switches; i++ {
		net.SetPipe(topology.SwitchID(rng.Intn(i)), topology.SwitchID(i), 1+rng.Intn(3))
	}
	for extra := rng.Intn(switches); extra > 0; extra-- {
		a, b := rng.Intn(switches), rng.Intn(switches)
		if a != b {
			net.SetPipe(topology.SwitchID(a), topology.SwitchID(b), 1+rng.Intn(3))
		}
	}
	for p := 0; p < procs; p++ {
		net.AttachProc(p, topology.SwitchID(rng.Intn(switches)))
	}
	return net
}

func TestPlaceMatchesReference(t *testing.T) {
	spread := 0
	for i, net := range placeCorpus(t) {
		got, err := Place(net, Options{Seed: 1})
		if err != nil {
			t.Fatalf("%d %s: %v", i, net.Name, err)
		}
		want := referencePlace(net, Options{Seed: 1}, 1)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%d %s: plan differs from the reference\n got %+v\nwant %+v", i, net.Name, got, want)
		}
		// The reference's restarts repeat its first search, so one
		// search is its default of four. Checked where it is cheap.
		if net.Procs <= 16 {
			if four := referencePlace(net, Options{Seed: 1}, 4); !reflect.DeepEqual(four, want) {
				t.Errorf("%d %s: reference plan changes with restarts", i, net.Name)
			}
		}
		if want.ProcLinkArea > 0 {
			spread++
		}
	}
	// Designs whose processors cannot all sit beside their switch take
	// the nearest-free-tile fallback; the corpus must exercise it.
	if spread == 0 {
		t.Fatal("no corpus design has processor-link area")
	}
}
