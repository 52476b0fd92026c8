// Package floorplan implements the paper's 2-D tile-based area model
// (Section 4.1): the chip is a grid of processor tiles à la MIT RAW, each
// with its network interface at a corner; switches occupy tile corners and
// may be shared by up to the four tiles meeting there (the paper's
// variable-orientation tiling); link area is proportional to the number of
// tiles a wire crosses.
//
// Quantitatively (calibrated to the paper's two anchors):
//
//   - The mesh baseline uses the fixed-orientation tiling of Figure 6(a):
//     every switch occupies its own corner and every link crosses exactly
//     one tile, so mesh link area equals the link count; a torus needs the
//     same switch area and twice the link area (Section 4.1).
//   - Generated networks use the variable-orientation tiling of Figure
//     6(b): switches are placed on the corner lattice by a deterministic
//     greedy local search (switch relocations and swaps, then processor
//     moves and swaps, committing strict improvements in a fixed order; it
//     draws no random numbers); a link between switches at lattice
//     (manhattan) distance d crosses max(0, d-1) tiles — zero for
//     physically adjacent switches, "as much as two" for the farther pairs
//     of Figure 6(b).
//
// The same geometry supplies per-link delays for the flit simulator: delay
// equals a link's length in tiles with a minimum of one cycle.
package floorplan

import (
	"fmt"
	"sort"

	"repro/internal/obs"
	"repro/internal/topology"
)

// Point is a corner-lattice coordinate. For an R x C tile grid the lattice
// spans (R+1) x (C+1) points.
type Point struct {
	R, C int
}

func manhattan(a, b Point) int {
	dr, dc := a.R-b.R, a.C-b.C
	if dr < 0 {
		dr = -dr
	}
	if dc < 0 {
		dc = -dc
	}
	return dr + dc
}

// linkCost is the tiles crossed by a wire between two switch corners.
func linkCost(a, b Point) int {
	if d := manhattan(a, b); d > 1 {
		return d - 1
	}
	return 0
}

// Plan is a placed floorplan for a network.
type Plan struct {
	// Rows and Cols give the tile grid dimensions.
	Rows, Cols int
	// SwitchPos maps each switch to its corner-lattice point.
	SwitchPos []Point
	// ProcTile maps each processor to its tile (row, col).
	ProcTile []Point
	// SwitchArea is the number of switches (uniform 5-port switch area
	// units).
	SwitchArea int
	// LinkArea is the total tiles crossed by switch-to-switch wires,
	// weighted by pipe width.
	LinkArea int
	// ProcLinkArea is the tiles crossed by processor-to-switch wires
	// (zero when every processor's switch sits on a corner of its tile).
	ProcLinkArea int
}

// TotalArea sums link and processor-link area (switch area is reported
// separately, as in Figure 7).
func (p *Plan) TotalArea() int { return p.LinkArea + p.ProcLinkArea }

// LinkDelay returns the simulator delay of the pipe between two switches:
// its length in tiles, minimum one cycle.
func (p *Plan) LinkDelay(a, b topology.SwitchID) int {
	d := linkCost(p.SwitchPos[a], p.SwitchPos[b])
	if d < 1 {
		return 1
	}
	return d
}

// MeshBaseline returns the fixed-orientation mesh accounting for n
// processors: one switch per tile and one tile crossed per link.
func MeshBaseline(procs int) (switchArea, linkArea int) {
	rows, cols := topology.GridDims(procs)
	mesh, _ := topology.Mesh(rows, cols)
	return mesh.NumSwitches(), mesh.TotalLinks()
}

// TorusBaseline returns the torus accounting: same switch area as the mesh
// and double its link area (Section 4.1: "the same total switch area as
// that in a mesh is needed, but double the total link area is required").
func TorusBaseline(procs int) (switchArea, linkArea int) {
	sw, la := MeshBaseline(procs)
	return sw, 2 * la
}

// Options tunes the placement search.
type Options struct {
	// Seed is accepted for symmetry with the other pipeline stages and
	// for callers that record it; the search is deterministic and draws
	// no random numbers, so the seed does not affect the plan.
	Seed int64
	// Sweeps bounds the improvement passes (default 64).
	Sweeps int
	// Obs receives telemetry: a span per Place call plus the floorplan.*
	// counters. Nil disables telemetry at zero cost.
	Obs obs.Observer
}

// Normalized returns the options with every zero field replaced by its
// documented default.
func (o Options) Normalized() Options {
	if o.Sweeps == 0 {
		o.Sweeps = 64
	}
	return o
}

// Place computes a variable-orientation floorplan for the network: switches
// on corner-lattice points, processors on tiles, minimizing processor-link
// area then link area. The plan depends only on the network.
func Place(net *topology.Network, opt Options) (*Plan, error) {
	if err := net.Validate(); err != nil {
		return nil, fmt.Errorf("floorplan: %v", err)
	}
	opt = opt.Normalized()
	sp := obs.Span(opt.Obs, "floorplan.place")
	defer sp.End()
	rows, cols := topology.GridDims(net.Procs)
	corners := (rows + 1) * (cols + 1)
	if net.NumSwitches() > corners {
		return nil, fmt.Errorf("floorplan: %d switches exceed %d corner sites", net.NumSwitches(), corners)
	}
	pl := newPlacement(net, rows, cols)
	pl.optimize(opt.Sweeps)
	plan := pl.plan()
	obs.Count(opt.Obs, "floorplan.place_calls", 1)
	obs.Count(opt.Obs, "floorplan.link_area", int64(plan.LinkArea))
	obs.Count(opt.Obs, "floorplan.switch_area", int64(plan.SwitchArea))
	return plan, nil
}

// procWeight scales processor-link area above link area in the search cost.
const procWeight = 1024

// pipeEnd is one pipe seen from a switch: the switch at its far end and
// its width.
type pipeEnd struct {
	nb topology.SwitchID
	w  int
}

// placement is the search state on flat row-major grids: corner (r, c) is
// index r*(cols+1)+c and tile (r, c) is index r*cols+c.
type placement struct {
	net        *topology.Network
	rows, cols int
	home       []topology.SwitchID // per proc
	adj        [][]pipeEnd         // per switch, by ascending neighbor
	cornerPt   []Point             // per corner
	tilePt     []Point             // per tile
	// cornerTiles lists the in-grid tiles touching each corner, in the
	// order the matching tries them: up-left, up, left, then the corner's
	// own tile.
	cornerTiles [][]int32

	swPos    []Point // per switch
	cornerSw []int32 // per corner: its switch, or -1
	procTile []int32 // per proc: its tile
	tileProc []int32 // per tile: its proc, or -1
	link     int     // link area of swPos

	// Scratch for costReassigned: the re-placed assignment, and the
	// generation-stamped visited marks of the augmenting-path search.
	matchTile []int32  // per tile: proc, or -1
	matchProc []int32  // per proc: tile, or -1
	seen      []uint32 // per tile
	gen       uint32
}

func newPlacement(net *topology.Network, rows, cols int) *placement {
	ns, nc, nt := net.NumSwitches(), (rows+1)*(cols+1), rows*cols
	pl := &placement{
		net:         net,
		rows:        rows,
		cols:        cols,
		home:        net.Home,
		adj:         make([][]pipeEnd, ns),
		cornerPt:    make([]Point, nc),
		tilePt:      make([]Point, nt),
		cornerTiles: make([][]int32, nc),
		swPos:       make([]Point, ns),
		cornerSw:    make([]int32, nc),
		procTile:    make([]int32, net.Procs),
		tileProc:    make([]int32, nt),
		matchTile:   make([]int32, nt),
		matchProc:   make([]int32, net.Procs),
		seen:        make([]uint32, nt),
	}
	for _, pipe := range net.Pipes {
		pl.adj[pipe.A] = append(pl.adj[pipe.A], pipeEnd{pipe.B, pipe.Width})
		pl.adj[pipe.B] = append(pl.adj[pipe.B], pipeEnd{pipe.A, pipe.Width})
	}
	for _, ends := range pl.adj {
		sort.Slice(ends, func(i, j int) bool { return ends[i].nb < ends[j].nb })
	}
	for r := 0; r <= rows; r++ {
		for c := 0; c <= cols; c++ {
			i := r*(cols+1) + c
			pl.cornerPt[i] = Point{r, c}
			pl.cornerSw[i] = -1
			for _, t := range [4]Point{{r - 1, c - 1}, {r - 1, c}, {r, c - 1}, {r, c}} {
				if t.R >= 0 && t.R < rows && t.C >= 0 && t.C < cols {
					pl.cornerTiles[i] = append(pl.cornerTiles[i], int32(t.R*cols+t.C))
				}
			}
		}
	}
	for t := range pl.tilePt {
		pl.tilePt[t] = Point{t / cols, t % cols}
		pl.tileProc[t] = -1
	}
	// Initial switch placement: greedy BFS from the highest-degree
	// switch, each next switch at the free corner minimizing cost to its
	// already-placed neighbors.
	placed := make([]bool, ns)
	for _, sw := range pl.bfsOrder() {
		best, bestCost := -1, 1<<30
		for c, occ := range pl.cornerSw {
			if occ >= 0 {
				continue
			}
			cost := 0
			for _, e := range pl.adj[sw] {
				if placed[e.nb] {
					cost += e.w * linkCost(pl.cornerPt[c], pl.swPos[e.nb])
				}
			}
			if cost < bestCost {
				best, bestCost = c, cost
			}
		}
		pl.swPos[sw] = pl.cornerPt[best]
		pl.cornerSw[best] = int32(sw)
		placed[sw] = true
	}
	for _, pipe := range net.Pipes {
		pl.link += pipe.Width * linkCost(pl.swPos[pipe.A], pl.swPos[pipe.B])
	}
	// Initial processor placement: the nearest free tile.
	for p, sw := range pl.home {
		t := pl.nearestFree(pl.tileProc, pl.swPos[sw])
		pl.procTile[p] = int32(t)
		pl.tileProc[t] = int32(p)
	}
	return pl
}

func (pl *placement) bfsOrder() []topology.SwitchID {
	n := pl.net.NumSwitches()
	start := topology.SwitchID(0)
	bestDeg := -1
	for sw := 0; sw < n; sw++ {
		d := len(pl.net.Switches[sw].Procs)
		for _, e := range pl.adj[sw] {
			d += e.w
		}
		if d > bestDeg {
			bestDeg = d
			start = topology.SwitchID(sw)
		}
	}
	visited := make([]bool, n)
	order := []topology.SwitchID{start}
	visited[start] = true
	for i := 0; i < len(order); i++ {
		for _, e := range pl.adj[order[i]] {
			if !visited[e.nb] {
				visited[e.nb] = true
				order = append(order, e.nb)
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

// corner is the index of lattice point p.
func (pl *placement) corner(p Point) int { return p.R*(pl.cols+1) + p.C }

// linkAt is the link area of sw's pipes at the current positions.
func (pl *placement) linkAt(sw topology.SwitchID) int {
	total := 0
	for _, e := range pl.adj[sw] {
		total += e.w * linkCost(pl.swPos[sw], pl.swPos[e.nb])
	}
	return total
}

// moveSwitch puts sw at p and keeps the link area current. The corner
// grid is the caller's to update: trial moves leave it alone.
func (pl *placement) moveSwitch(sw topology.SwitchID, p Point) {
	pl.link -= pl.linkAt(sw)
	pl.swPos[sw] = p
	pl.link += pl.linkAt(sw)
}

// nearestFree returns the first tile, in row-major order, that occ marks
// free (-1) at minimum procCost to the corner sw, or -1 if none is free.
func (pl *placement) nearestFree(occ []int32, sw Point) int {
	best, bestCost := -1, 1<<30
	for t, holder := range occ {
		if holder >= 0 {
			continue
		}
		if cost := procCost(pl.tilePt[t], sw); cost < bestCost {
			best, bestCost = t, cost
		}
	}
	return best
}

// procCost is the tiles crossed by the wire from a tile's NI to the
// switch's corner: the manhattan distance from the corner to the nearest of
// the tile's four corners, zero when the switch sits on one of them.
func procCost(tile, sw Point) int {
	return axisGap(tile.R, sw.R) + axisGap(tile.C, sw.C)
}

// axisGap is the distance from x to the nearer of lo and lo+1.
func axisGap(lo, x int) int {
	switch {
	case x < lo:
		return lo - x
	case x > lo+1:
		return x - lo - 1
	}
	return 0
}

// procArea is the processor-link area of the committed assignment.
func (pl *placement) procArea() int {
	total := 0
	for p, t := range pl.procTile {
		total += procCost(pl.tilePt[t], pl.swPos[pl.home[p]])
	}
	return total
}

// cost prioritizes processor adjacency (the paper's tiling always places a
// tile's NI on a corner its switch occupies), then link area.
func (pl *placement) cost() int { return pl.procArea()*procWeight + pl.link }

// augment extends the matching in matchTile/matchProc with proc p along an
// augmenting path over tiles touching each processor's switch corner.
func (pl *placement) augment(p int) bool {
	for _, t := range pl.cornerTiles[pl.corner(pl.swPos[pl.home[p]])] {
		if pl.seen[t] == pl.gen {
			continue
		}
		pl.seen[t] = pl.gen
		if holder := pl.matchTile[t]; holder < 0 || pl.augment(int(holder)) {
			pl.matchTile[t] = int32(p)
			pl.matchProc[p] = t
			return true
		}
	}
	return false
}

// costReassigned returns the cost the current switch positions have with
// every processor re-placed from scratch, into matchProc: a maximum
// matching of processors to tiles touching their switch's corner (augmenting
// paths, processors in order), then the nearest free tile for each
// processor the matching leaves out. It is a pure function of swPos and
// leaves the committed assignment alone. Once the cost cannot fall below
// bound it stops early and returns a value >= bound, with matchProc
// incomplete.
func (pl *placement) costReassigned(bound int) int {
	if pl.link >= bound {
		return pl.link
	}
	for t := range pl.matchTile {
		pl.matchTile[t] = -1
	}
	for p := range pl.matchProc {
		pl.matchProc[p] = -1
	}
	// Every tile touching an unmatched processor's corner stays matched,
	// so each such processor lands at least one tile away.
	cost := pl.link
	for p := range pl.matchProc {
		if pl.gen++; pl.gen == 0 {
			clear(pl.seen)
			pl.gen = 1
		}
		if !pl.augment(p) {
			if cost += procWeight; cost >= bound {
				return cost
			}
		}
	}
	if cost == pl.link {
		return cost
	}
	area := 0
	for p, t := range pl.matchProc {
		if t >= 0 {
			continue
		}
		sw := pl.swPos[pl.home[p]]
		free := pl.nearestFree(pl.matchTile, sw)
		pl.matchTile[free] = int32(p)
		pl.matchProc[p] = int32(free)
		area += procCost(pl.tilePt[free], sw)
	}
	return area*procWeight + pl.link
}

// setProc moves processor p to the free tile t.
func (pl *placement) setProc(p int, t int32) {
	pl.tileProc[pl.procTile[p]] = -1
	pl.procTile[p] = t
	pl.tileProc[t] = int32(p)
}

// optimize runs improvement sweeps: switch relocations and swaps — each
// evaluated with processors re-placed, since a switch move is only as good
// as the tiles its processors can then claim — followed by processor-level
// refinement. Strict improvements are committed; candidates are tried in a
// fixed order, so the search is deterministic.
func (pl *placement) optimize(sweeps int) {
	const unbounded = int(^uint(0) >> 1)
	for sweep := 0; sweep < sweeps; sweep++ {
		improved := false
		for sw := 0; sw < pl.net.NumSwitches(); sw++ {
			id := topology.SwitchID(sw)
			oldPos := pl.swPos[id]
			best, bestCost := -1, pl.costReassigned(unbounded)
			for c, occ := range pl.cornerSw {
				if occ >= 0 {
					continue
				}
				pl.moveSwitch(id, pl.cornerPt[c])
				if cost := pl.costReassigned(bestCost); cost < bestCost {
					best, bestCost = c, cost
				}
			}
			pl.moveSwitch(id, oldPos)
			if best >= 0 {
				pl.cornerSw[pl.corner(oldPos)] = -1
				pl.cornerSw[best] = int32(id)
				pl.moveSwitch(id, pl.cornerPt[best])
				improved = true
			}
			// Swaps with other switches.
			cur := bestCost
			for other := sw + 1; other < pl.net.NumSwitches(); other++ {
				oid := topology.SwitchID(other)
				a, b := pl.swPos[id], pl.swPos[oid]
				pl.moveSwitch(id, b)
				pl.moveSwitch(oid, a)
				if cost := pl.costReassigned(cur); cost < cur {
					cur = cost
					pl.cornerSw[pl.corner(a)] = int32(oid)
					pl.cornerSw[pl.corner(b)] = int32(id)
					improved = true
				} else {
					pl.moveSwitch(id, a)
					pl.moveSwitch(oid, b)
				}
			}
		}
		// Commit the reassignment implied by the final switch layout if
		// it helps, then refine processors individually. A processor move
		// or swap changes only the moved processors' wires.
		if before := pl.cost(); pl.costReassigned(before) < before {
			copy(pl.procTile, pl.matchProc)
			copy(pl.tileProc, pl.matchTile)
			improved = true
		}
		for p := 0; p < pl.net.Procs; p++ {
			swP := pl.swPos[pl.home[p]]
			if t := pl.nearestFree(pl.tileProc, swP); t >= 0 &&
				procCost(pl.tilePt[t], swP) < procCost(pl.tilePt[pl.procTile[p]], swP) {
				pl.setProc(p, int32(t))
				improved = true
			}
			for q := p + 1; q < pl.net.Procs; q++ {
				swQ := pl.swPos[pl.home[q]]
				a, b := pl.tilePt[pl.procTile[p]], pl.tilePt[pl.procTile[q]]
				if procCost(b, swP)+procCost(a, swQ) < procCost(a, swP)+procCost(b, swQ) {
					pl.procTile[p], pl.procTile[q] = pl.procTile[q], pl.procTile[p]
					pl.tileProc[pl.procTile[p]] = int32(p)
					pl.tileProc[pl.procTile[q]] = int32(q)
					improved = true
				}
			}
		}
		if !improved {
			return
		}
	}
}

func (pl *placement) plan() *Plan {
	procTile := make([]Point, len(pl.procTile))
	for p, t := range pl.procTile {
		procTile[p] = pl.tilePt[t]
	}
	return &Plan{
		Rows:         pl.rows,
		Cols:         pl.cols,
		SwitchPos:    append([]Point(nil), pl.swPos...),
		ProcTile:     procTile,
		SwitchArea:   pl.net.NumSwitches(),
		LinkArea:     pl.link,
		ProcLinkArea: pl.procArea(),
	}
}
