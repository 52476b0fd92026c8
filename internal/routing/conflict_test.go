package routing_test

import (
	"math/rand"
	"testing"

	"repro/internal/model"
	"repro/internal/nas"
	"repro/internal/routing"
	"repro/internal/synth"
	"repro/internal/topology"
)

// conflictSetRef is the map-based R (Definition 7) that Table.ConflictMatrix
// replaced, kept as its oracle: invert resource → flows, then mark every
// pair of flows sharing a resource.
func conflictSetRef(t *routing.Table) map[model.FlowPair]bool {
	users := make(map[routing.Channel][]model.Flow)
	for _, f := range t.SortedFlows() {
		for _, ch := range routing.PathChannels(f, t.Routes[f]) {
			users[ch] = append(users[ch], f)
		}
	}
	r := make(map[model.FlowPair]bool)
	for _, fs := range users {
		for i := 0; i < len(fs); i++ {
			for j := i + 1; j < len(fs); j++ {
				r[model.MakeFlowPair(fs[i], fs[j])] = true
			}
		}
	}
	return r
}

// checkConflictMatrix requires tab.ConflictMatrix(ix) to hold exactly the
// oracle's pairs between flows of ix.
func checkConflictMatrix(t *testing.T, name string, tab *routing.Table, ix *model.FlowIndex) {
	t.Helper()
	ref := conflictSetRef(tab)
	got := tab.ConflictMatrix(ix)
	want := 0
	for i := 0; i < ix.Len(); i++ {
		for j := i + 1; j < ix.Len(); j++ {
			w := ref[model.MakeFlowPair(ix.Flow(i), ix.Flow(j))]
			if w {
				want++
			}
			if got.Has(i, j) != w || got.Has(j, i) != w {
				t.Fatalf("%s: Has(%v,%v) = %v, oracle %v", name, ix.Flow(i), ix.Flow(j), got.Has(i, j), w)
			}
		}
		if got.Has(i, i) {
			t.Fatalf("%s: flow %v conflicts with itself", name, ix.Flow(i))
		}
	}
	if got.Len() != want {
		t.Fatalf("%s: |R| = %d, oracle %d", name, got.Len(), want)
	}
}

// randomTable routes random flows by shortest path over a random connected
// network with multi-link pipes, then spreads each hop over a random link
// of its pipe.
func randomTable(t *testing.T, rng *rand.Rand) *routing.Table {
	t.Helper()
	procs := 4 + rng.Intn(9)
	nsw := 2 + rng.Intn(5)
	net := topology.New("rand", procs)
	sw := make([]topology.SwitchID, nsw)
	for i := range sw {
		sw[i] = net.AddSwitch()
		if i > 0 {
			net.SetPipe(sw[rng.Intn(i)], sw[i], 1+rng.Intn(3))
		}
	}
	for k := 0; k < nsw; k++ {
		a, b := sw[rng.Intn(nsw)], sw[rng.Intn(nsw)]
		if _, ok := net.PipeBetween(a, b); a != b && !ok {
			net.SetPipe(a, b, 1+rng.Intn(3))
		}
	}
	for p := 0; p < procs; p++ {
		net.AttachProc(p, sw[rng.Intn(nsw)])
	}
	var flows []model.Flow
	for s := 0; s < procs; s++ {
		for d := 0; d < procs; d++ {
			if s != d && rng.Intn(3) == 0 {
				flows = append(flows, model.F(s, d))
			}
		}
	}
	tab, err := routing.ShortestPath(net, flows)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range tab.SortedFlows() {
		r := tab.Routes[f]
		for h := range r.Links {
			p, _ := net.PipeBetween(r.Switches[h], r.Switches[h+1])
			r.Links[h] = rng.Intn(p.Width)
		}
	}
	if err := tab.Validate(); err != nil {
		t.Fatal(err)
	}
	return tab
}

// TestConflictMatrixMatchesReference pins Table.ConflictMatrix to the map
// oracle on random tables, over the table's own flows, over a random subset
// (absent flows are ignored), and over a superset holding unrouted flows.
func TestConflictMatrixMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 200; trial++ {
		tab := randomTable(t, rng)
		flows := tab.SortedFlows()
		checkConflictMatrix(t, "own flows", tab, model.NewFlowIndex(flows))
		var sub []model.Flow
		for _, f := range flows {
			if rng.Intn(2) == 0 {
				sub = append(sub, f)
			}
		}
		checkConflictMatrix(t, "subset", tab, model.NewFlowIndex(sub))
		super := append(append([]model.Flow(nil), flows...), model.F(100, 101), model.F(101, 100))
		checkConflictMatrix(t, "superset", tab, model.NewFlowIndex(super))
	}
}

// TestConflictMatrixMatchesReferenceSynthesized pins Table.ConflictMatrix
// to the map oracle on the routing tables synthesis generates for every NAS
// benchmark, indexed over the pattern's flows as the Theorem 1 checks do.
func TestConflictMatrixMatchesReferenceSynthesized(t *testing.T) {
	for _, name := range nas.Names() {
		pat, err := nas.Generate(name, 16, nas.Config{Iterations: 1})
		if err != nil {
			t.Fatal(err)
		}
		res, err := synth.Synthesize(pat, synth.Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		checkConflictMatrix(t, name, res.Table, model.NewFlowIndex(pat.Flows()))
	}
}
