package synth

import (
	"math/rand"
	"sync"

	"repro/internal/model"
)

// This file is the allocation-free incremental move engine: an explicit undo
// journal with nested marks (replacing tryMove's undo closures), a per-state
// route arena (replacing per-move route copies), version counters that guard
// a KL/FM-style per-candidate gain cache across optimizeMoves iterations, and
// a state pool that recycles every matrix and scratch buffer across restarts.
//
// Contract (see DESIGN.md §13):
//
//   - All pipe/placement mutations go through setRoute/reattachNoReroute.
//     With no probe open (jDepth == 0) a mutation is a commit: it bumps the
//     pair/home version counters that invalidate cached gains. Inside a probe
//     (between beginProbe and rollback/keep) mutations are journaled and bump
//     nothing, so a rolled-back probe is version-neutral and leaves every
//     cached gain exactly as fresh as before.
//   - rollback(m) reverse-replays the journal down to the mark through the
//     raw mutators and pops the route arena to the mark, restoring the state
//     bit-for-bit (including swProcs list order: a probed processor ends up
//     at the end of its home list, exactly as the reference engine's
//     apply/undo round trip leaves it).
//   - keep(m) retains the mutations and performs the deferred version bumps
//     (old and current route pairs, moved processors' homes). It never pops
//     the arena: committed routes own their arena bytes until reset().
//   - Route slices are immutable headers once installed: direct one- and
//     two-switch routes are shared cached headers, longer routes live in the
//     arena (or on the heap for rare oversized paths). Nothing ever writes
//     through an installed route.
type journalEntry struct {
	kind  uint8
	a, b  int32 // jeRoute: a = flow ID; jeAttach: a = proc, b = old home
	route []int // jeRoute: the replaced route header
}

const (
	jeRoute  = uint8(0)
	jeAttach = uint8(1)
)

// jmark is a journal + arena position returned by beginProbe.
type jmark struct {
	n     int // journal length
	chunk int // arena chunk index
	off   int // arena offset within chunk
}

// routeArena bump-allocates route storage in fixed chunks. restore() pops to
// a mark (probe-scoped routes die with their rollback); reset() recycles all
// chunks for the next restart.
type routeArena struct {
	chunks [][]int
	ci     int
	off    int
}

const arenaChunkInts = 1024

func (a *routeArena) alloc(n int) []int {
	if n > arenaChunkInts {
		// Oversized paths (deep seed replays, long backbone routes) fall
		// back to the heap; restore/reset ignore them safely.
		return make([]int, n)
	}
	if len(a.chunks) == 0 {
		a.chunks = append(a.chunks, make([]int, arenaChunkInts))
	}
	if a.off+n > arenaChunkInts {
		a.ci++
		if a.ci == len(a.chunks) {
			a.chunks = append(a.chunks, make([]int, arenaChunkInts))
		}
		a.off = 0
	}
	out := a.chunks[a.ci][a.off : a.off+n : a.off+n]
	a.off += n
	return out
}

func (a *routeArena) restore(chunk, off int) { a.ci, a.off = chunk, off }
func (a *routeArena) reset()                 { a.ci, a.off = 0, 0 }

// beginProbe opens a nested probe scope: subsequent setRoute and
// reattachNoReroute calls are journaled instead of committed.
func (s *state) beginProbe() jmark {
	s.jDepth++
	return jmark{n: len(s.journal), chunk: s.arena.ci, off: s.arena.off}
}

// rollback restores the state to the mark: journal entries are reverse-
// replayed through the raw mutators (no journaling, no version bumps) and the
// arena is popped, so probe-allocated routes are reclaimed.
func (s *state) rollback(m jmark) {
	for i := len(s.journal) - 1; i >= m.n; i-- {
		e := &s.journal[i]
		if e.kind == jeRoute {
			s.setRouteRaw(int(e.a), e.route)
		} else {
			s.moveProcRaw(int(e.a), int(e.b))
		}
		e.route = nil
	}
	s.journal = s.journal[:m.n]
	s.arena.restore(m.chunk, m.off)
	s.jDepth--
}

// keep commits the probe's mutations: the version bumps deferred while the
// journal was open are applied now (over-bumping on nested keeps is safe —
// it can only invalidate cached gains spuriously). The journal is truncated
// only when the outermost scope closes, so an enclosing rollback still sees
// every entry; the arena is never popped.
func (s *state) keep(m jmark) {
	for i := m.n; i < len(s.journal); i++ {
		e := &s.journal[i]
		if e.kind == jeRoute {
			s.bumpRoutePairs(e.route)
			s.bumpRoutePairs(s.routes[e.a])
		} else {
			s.homeVer[e.a]++
		}
	}
	s.jDepth--
	if s.jDepth == 0 {
		for i := m.n; i < len(s.journal); i++ {
			s.journal[i].route = nil
		}
		s.journal = s.journal[:m.n]
	}
}

// bumpRoutePairs invalidates the gain-cache version of every pipe pair a
// route crosses.
func (s *state) bumpRoutePairs(r []int) {
	for i := 1; i < len(r); i++ {
		s.pairVer[s.widthIdx(r[i-1], r[i])]++
	}
}

// setRouteRaw is the journal-free route mutator: it maintains the pipe flow
// sets, the per-direction stats cache, the pair-width dirty list, and the
// total hop count, and installs the new header.
func (s *state) setRouteRaw(fi int, route []int) {
	if old := s.routes[fi]; old != nil {
		for i := 1; i < len(old); i++ {
			pi := old[i-1]*s.stride + old[i]
			s.pipes[pi].Clear(fi)
			s.pipeCount[pi]--
			s.invalidateDir(old[i-1], old[i])
		}
		s.totalHops -= len(old) - 1
	}
	s.routes[fi] = route
	for i := 1; i < len(route); i++ {
		pi := route[i-1]*s.stride + route[i]
		set := s.pipes[pi]
		if set == nil {
			set = model.NewBitSet(len(s.flows))
			s.pipes[pi] = set
		}
		set.Set(fi)
		s.pipeCount[pi]++
		s.invalidateDir(route[i-1], route[i])
	}
	s.totalHops += len(route) - 1
}

// moveProcRaw is the journal-free placement mutator (the old
// reattachNoReroute body): order-preserving removal from the current home
// list, append to the end of the target's.
func (s *state) moveProcRaw(p, to int) {
	from := s.home[p]
	procs := s.swProcs[from]
	for i, q := range procs {
		if q == p {
			s.swProcs[from] = append(procs[:i], procs[i+1:]...)
			break
		}
	}
	s.home[p] = to
	s.swProcs[to] = append(s.swProcs[to], p)
}

// moveProcToEnd replays the list permutation a probe would have caused —
// remove p and re-append it to its own home list — without any probe. Gain-
// cache hits use it so the swProcs order (and hence every later shuffle)
// stays byte-identical to the reference engine's probe/undo round trip.
func (s *state) moveProcToEnd(p int) {
	procs := s.swProcs[s.home[p]]
	for i, q := range procs {
		if q == p {
			copy(procs[i:], procs[i+1:])
			procs[len(procs)-1] = p
			return
		}
	}
}

// cachedDirect returns the shared immutable header for the one- or two-
// switch direct route between home switches a and b.
func (s *state) cachedDirect(a, b int) []int {
	if a == b {
		r := s.selfRoute[a]
		if r == nil {
			r = []int{a}
			s.selfRoute[a] = r
		}
		return r
	}
	i := a*s.stride + b
	r := s.pairRoute[i]
	if r == nil {
		r = []int{a, b}
		s.pairRoute[i] = r
	}
	return r
}

// persistRoute returns a stable header holding cand's switches: shared
// cached headers for one- and two-hop routes, arena storage otherwise.
// cand itself may be caller scratch.
func (s *state) persistRoute(cand []int) []int {
	switch len(cand) {
	case 1:
		return s.cachedDirect(cand[0], cand[0])
	case 2:
		return s.cachedDirect(cand[0], cand[1])
	}
	out := s.arena.alloc(len(cand))
	copy(out, cand)
	return out
}

// persistReversed is persistRoute of cand walked backwards.
func (s *state) persistReversed(cand []int) []int {
	n := len(cand)
	if n <= 2 {
		if n == 1 {
			return s.cachedDirect(cand[0], cand[0])
		}
		return s.cachedDirect(cand[1], cand[0])
	}
	out := s.arena.alloc(n)
	for i, x := range cand {
		out[n-1-i] = x
	}
	return out
}

// movePairs collects, into pairScratch, the pipe pairs a move of processor p
// to switch `to` can affect: the pairs crossed by p's current routes, then
// the predicted direct pairs of those flows under the moved placement — the
// same set (and order) the reference engine discovers by applying the move.
func (s *state) movePairs(p, to int) [][2]int {
	pairs := s.pairScratch[:0]
	for _, fi := range s.procFlows[p] {
		pairs = addRoutePairs(pairs, s.routes[fi])
	}
	for _, fi := range s.procFlows[p] {
		f := s.flows[fi]
		a, b := s.home[f.Src], s.home[f.Dst]
		if f.Src == p {
			a = to
		}
		if f.Dst == p {
			b = to
		}
		if a != b {
			pairs = addPair(pairs, a, b)
		}
	}
	return pairs
}

// applyMove evaluates moving p to `to` and leaves the move applied inside an
// open probe scope: the caller commits with keep(m) or reverts with
// rollback(m). The "before" cost comes from the current state — no
// apply/undo/recost/reapply round trip.
func (s *state) applyMove(p, to int) (int, jmark) {
	from := s.home[p]
	pairs := s.movePairs(p, to)
	sws := s.switchesOf(pairs, from, to)
	before := s.localCost(pairs, sws)
	m := s.beginProbe()
	s.reattach(p, to)
	after := s.localCost(pairs, sws)
	s.pairScratch = pairs[:0]
	s.stats.MovesEvaluated++
	return after - before, m
}

// probeMove is applyMove immediately rolled back: the cost delta of a move,
// leaving only the reference-identical list permutation behind.
func (s *state) probeMove(p, to int) int {
	delta, m := s.applyMove(p, to)
	// rollback replays the attach entry through moveProcRaw, which nets p to
	// the end of its home list — the same permutation the reference engine's
	// apply/undo round trip leaves.
	s.rollback(m)
	return delta
}

// moveGain is one cached candidate evaluation for the optimizeMoves loop:
// the move's cost components plus everything needed to prove them still
// valid. The penalty term is nonlinear in state that other moves change, so
// it is not cached — gainDelta recomputes it from current degrees plus the
// captured per-switch degree deltas.
type moveGain struct {
	valid                bool
	from, to             int32
	dLinks, dQuad, dHops int
	pairs                [][2]int32 // affected pipe pairs (canonical a < b)
	pairVers             []uint32   // pairVer at capture
	sws                  []int32    // affected switches (from, to included)
	dDeg                 []int32    // estDegree delta per sws entry
	peers                []int32    // p and all endpoint procs of p's flows
	homeVers             []uint32   // homeVer at capture
}

// gainFresh reports whether a cached gain still predicts probeMove(p, to)
// exactly: same endpoints, no peer rehomed, no affected pipe's content
// changed since capture. Under these guards the captured link/quad/hop
// deltas and per-switch degree deltas are exact (see DESIGN.md §13).
func (s *state) gainFresh(g *moveGain, p, to int) bool {
	if !g.valid || g.from != int32(s.home[p]) || g.to != int32(to) {
		return false
	}
	for i, pe := range g.peers {
		if s.homeVer[pe] != g.homeVers[i] {
			return false
		}
	}
	for i, pr := range g.pairs {
		if s.pairVer[int(pr[0])*s.stride+int(pr[1])] != g.pairVers[i] {
			return false
		}
	}
	return true
}

// gainDelta reconstructs the move's cost delta from a fresh cache entry:
// cached link/quad/hop deltas plus the penalty delta recomputed from current
// degrees and processor counts shifted by the captured deltas.
func (s *state) gainDelta(g *moveGain) int {
	s.flushDirty()
	pen := 0
	maxDeg, maxProcs := s.opt.MaxDegree, s.opt.MaxProcsPerSwitch
	for i, sw32 := range g.sws {
		sw := int(sw32)
		n := len(s.swProcs[sw])
		d := n + int(s.sumW[sw])
		dA := d + int(g.dDeg[i])
		nA := n
		if sw32 == g.from {
			nA--
		}
		if sw32 == g.to {
			nA++
		}
		if d > maxDeg {
			pen -= d - maxDeg
		}
		if n > maxProcs {
			pen -= n - maxProcs
		}
		if dA > maxDeg {
			pen += dA - maxDeg
		}
		if nA > maxProcs {
			pen += nA - maxProcs
		}
	}
	return pen*costPenaltyWeight + g.dLinks*costLinkWeight +
		g.dQuad*costQuadWeight + g.dHops*costHopWeight
}

// probeMoveGain is probeMove plus gain capture: it fills s.gains[p] so later
// optimizeMoves iterations can skip the probe while the entry stays fresh.
func (s *state) probeMoveGain(p, to int) int {
	from := s.home[p]
	pairs := s.movePairs(p, to)
	sws := s.switchesOf(pairs, from, to)
	penB, lB, qB := s.localCostParts(pairs, sws)
	hopsB := s.totalHops

	g := &s.gains[p]
	g.valid = false
	g.from, g.to = int32(from), int32(to)
	g.pairs = g.pairs[:0]
	g.pairVers = g.pairVers[:0]
	for _, pr := range pairs {
		g.pairs = append(g.pairs, [2]int32{int32(pr[0]), int32(pr[1])})
		g.pairVers = append(g.pairVers, s.pairVer[pr[0]*s.stride+pr[1]])
	}
	g.sws = g.sws[:0]
	g.dDeg = g.dDeg[:0]
	for _, sw := range sws {
		g.sws = append(g.sws, int32(sw))
		g.dDeg = append(g.dDeg, int32(-s.estDegree(sw)))
	}
	g.peers = append(g.peers[:0], int32(p))
	g.homeVers = append(g.homeVers[:0], s.homeVer[p])
	for _, fi := range s.procFlows[p] {
		f := s.flows[fi]
		for k := 0; k < 2; k++ {
			x := f.Src
			if k == 1 {
				x = f.Dst
			}
			seen := false
			for _, y := range g.peers {
				if y == int32(x) {
					seen = true
					break
				}
			}
			if !seen {
				g.peers = append(g.peers, int32(x))
				g.homeVers = append(g.homeVers, s.homeVer[x])
			}
		}
	}

	m := s.beginProbe()
	s.reattach(p, to)
	penA, lA, qA := s.localCostParts(pairs, sws)
	hopsA := s.totalHops
	for i, sw := range sws {
		g.dDeg[i] += int32(s.estDegree(sw))
	}
	s.rollback(m)
	g.dLinks, g.dQuad, g.dHops = lA-lB, qA-qB, hopsA-hopsB
	g.valid = true
	s.pairScratch = pairs[:0]
	s.stats.MovesEvaluated++
	return (penA-penB)*costPenaltyWeight + g.dLinks*costLinkWeight +
		g.dQuad*costQuadWeight + g.dHops*costHopWeight
}

// applySwap evaluates exchanging the homes of p and q, leaving the swap
// applied inside an open probe scope (keep to commit, rollback to revert).
func (s *state) applySwap(p, q int) (int, jmark) {
	sp, sq := s.home[p], s.home[q]
	pairs := s.pairScratch[:0]
	for _, fi := range s.procFlows[p] {
		pairs = addRoutePairs(pairs, s.routes[fi])
	}
	for _, fi := range s.procFlows[q] {
		pairs = addRoutePairs(pairs, s.routes[fi])
	}
	for k := 0; k < 2; k++ {
		proc := p
		if k == 1 {
			proc = q
		}
		for _, fi := range s.procFlows[proc] {
			f := s.flows[fi]
			a, b := s.home[f.Src], s.home[f.Dst]
			if f.Src == p {
				a = sq
			} else if f.Src == q {
				a = sp
			}
			if f.Dst == p {
				b = sq
			} else if f.Dst == q {
				b = sp
			}
			if a != b {
				pairs = addPair(pairs, a, b)
			}
		}
	}
	sws := s.switchesOf(pairs, sp, sq)
	before := s.localCost(pairs, sws)
	m := s.beginProbe()
	s.reattachNoReroute(p, sq)
	s.reattachNoReroute(q, sp)
	for _, fi := range s.procFlows[p] {
		s.setRoute(fi, s.directRoute(fi))
	}
	for _, fi := range s.procFlows[q] {
		s.setRoute(fi, s.directRoute(fi))
	}
	after := s.localCost(pairs, sws)
	s.pairScratch = pairs[:0]
	s.stats.MovesEvaluated++
	return after - before, m
}

// allSwitches fills the reusable all-switch list [0, nsw).
func (s *state) allSwitches() []int {
	all := s.allScratch[:0]
	for i := range s.swProcs {
		all = append(all, i)
	}
	s.allScratch = all
	return all
}

// kernel is the immutable per-pattern half of the old state: flow interning,
// the conflict relation, clique bitsets, and the proc→flow map. Built once
// per SynthesizeContext and shared read-only by every concurrent restart.
type kernel struct {
	procs      int
	cliques    []model.Clique
	idx        *model.FlowIndex      // flow ⇄ dense ID (per-pattern)
	conflict   *model.ConflictMatrix // C as per-flow conflict rows
	cliqueBits []model.BitSet        // clique -> member flow IDs
	flows      []model.Flow          // flow ID -> Flow (sorted; shared with idx)
	revID      []int                 // flow ID -> reverse flow's ID, or -1
	procFlows  [][]int               // processor -> flow IDs touching it
}

func newKernel(p *model.Pattern, cliques []model.Clique) *kernel {
	idx := model.NewFlowIndex(model.CliqueFlows(cliques))
	k := &kernel{
		procs:      p.Procs,
		cliques:    cliques,
		idx:        idx,
		conflict:   model.ConflictMatrixFromCliques(idx, cliques),
		cliqueBits: idx.CliqueBits(cliques),
		flows:      idx.Flows(),
		revID:      make([]int, idx.Len()),
		procFlows:  make([][]int, p.Procs),
	}
	for fi, f := range k.flows {
		if ri, ok := idx.ID(f.Reverse()); ok {
			k.revID[fi] = ri
		} else {
			k.revID[fi] = -1
		}
		k.procFlows[f.Src] = append(k.procFlows[f.Src], fi)
		if f.Dst != f.Src {
			k.procFlows[f.Dst] = append(k.procFlows[f.Dst], fi)
		}
	}
	return k
}

// statePool recycles states across restarts and across Synthesize calls:
// newState's matrices, bitsets, arena chunks, and scratch buffers are reused
// instead of reallocated. reset() re-derives every value from the kernel, so
// a pooled state is indistinguishable from a fresh one.
var statePool = sync.Pool{New: func() any { return new(state) }}

func newState(k *kernel, opt Options, seed int64, stats *Stats) *state {
	s := statePool.Get().(*state)
	s.kernel = k
	s.opt = opt
	s.stats = stats
	if s.src == nil {
		s.src = rand.NewSource(seed)
		s.rng = rand.New(s.src)
	} else {
		// Re-seeding the pooled source reproduces rand.New(rand.NewSource
		// (seed))'s stream exactly: rand.Rand holds no draw state of its
		// own for the Int/Float64/Shuffle methods the search uses.
		s.src.Seed(seed)
	}
	s.reset()
	return s
}

// release returns the state to the pool, dropping every reference into the
// kernel and context so pooled memory never pins a pattern.
func (s *state) release() {
	s.kernel = nil
	s.ctx = nil
	s.stats = nil
	s.opt = Options{}
	statePool.Put(s)
}

// reset rebuilds the mutable state for the current kernel: one megaswitch
// holding every processor, every flow on the shared single-switch route,
// all caches valid-empty, journal and arena empty, gains invalid.
func (s *state) reset() {
	s.growStride(8)
	nf := len(s.flows)
	words := (nf + 63) / 64
	for i, set := range s.pipes {
		switch {
		case set == nil:
		case len(set) < words:
			// A pooled set sized for a smaller flow universe cannot
			// index this pattern's flow IDs; drop it and let
			// setRouteRaw rebuild it. Oversized sets are value-safe
			// (AndCount/Intersects zero-extend).
			s.pipes[i] = nil
		default:
			set.Reset()
		}
	}
	for i := range s.pipeCount {
		s.pipeCount[i] = 0
	}
	for i := range s.dirW {
		s.dirW[i] = 0
	}
	for i := range s.dirQ {
		s.dirQ[i] = 0
	}
	for i := range s.pairW {
		s.pairW[i] = 0
	}
	for i := range s.pairVer {
		s.pairVer[i] = 0
	}
	for i := range s.sumW {
		s.sumW[i] = 0
	}
	s.dirty = s.dirty[:0]

	if cap(s.home) < s.procs {
		s.home = make([]int, s.procs)
		s.homeVer = make([]uint32, s.procs)
	} else {
		s.home = s.home[:s.procs]
		s.homeVer = s.homeVer[:s.procs]
		for i := range s.home {
			s.home[i] = 0
			s.homeVer[i] = 0
		}
	}
	if cap(s.allProcs) < s.procs {
		s.allProcs = make([]int, s.procs)
	}
	all := s.allProcs[:s.procs:s.procs]
	for i := range all {
		all[i] = i
	}
	s.swProcs = append(s.swProcs[:0], all)
	s.swDepth = append(s.swDepth[:0], 0)

	s.journal = s.journal[:0]
	s.jDepth = 0
	s.arena.reset()
	if cap(s.routes) < nf {
		s.routes = make([][]int, nf)
	} else {
		s.routes = s.routes[:nf]
	}
	r0 := s.cachedDirect(0, 0)
	for fi := range s.routes {
		s.routes[fi] = r0
	}
	s.totalHops = 0

	if cap(s.gains) < s.procs {
		s.gains = make([]moveGain, s.procs)
	} else {
		s.gains = s.gains[:s.procs]
	}
	for i := range s.gains {
		s.gains[i].valid = false
	}
	s.seedFast = false
}
