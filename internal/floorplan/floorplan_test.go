package floorplan

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/nas"
	"repro/internal/synth"
	"repro/internal/topology"
)

func TestBaselines(t *testing.T) {
	sw, la := MeshBaseline(16)
	if sw != 16 || la != 24 {
		t.Fatalf("mesh 16: switch=%d link=%d, want 16/24", sw, la)
	}
	tsw, tla := TorusBaseline(16)
	if tsw != 16 || tla != 48 {
		t.Fatalf("torus 16: switch=%d link=%d, want 16/48", tsw, tla)
	}
	sw8, la8 := MeshBaseline(8)
	if sw8 != 8 || la8 != 10 {
		t.Fatalf("mesh 8 (2x4): switch=%d link=%d, want 8/10", sw8, la8)
	}
	sw9, la9 := MeshBaseline(9)
	if sw9 != 9 || la9 != 12 {
		t.Fatalf("mesh 9 (3x3): switch=%d link=%d, want 9/12", sw9, la9)
	}
}

func TestLinkCostGeometry(t *testing.T) {
	cases := []struct {
		a, b Point
		want int
	}{
		{Point{0, 0}, Point{0, 0}, 0},
		{Point{0, 0}, Point{0, 1}, 0}, // physically adjacent
		{Point{0, 0}, Point{1, 0}, 0},
		{Point{0, 0}, Point{1, 1}, 1},
		{Point{0, 0}, Point{0, 2}, 1},
		{Point{0, 0}, Point{2, 2}, 3},
	}
	for _, c := range cases {
		if got := linkCost(c.a, c.b); got != c.want {
			t.Errorf("linkCost(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestPlaceValidAssignment(t *testing.T) {
	pat := nas.Figure1Pattern()
	res, err := synth.Synthesize(pat, synth.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Place(res.Net, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Distinct corners for switches.
	seen := map[Point]bool{}
	for sw, p := range plan.SwitchPos {
		if p.R < 0 || p.R > plan.Rows || p.C < 0 || p.C > plan.Cols {
			t.Fatalf("switch %d at %v outside lattice", sw, p)
		}
		if seen[p] {
			t.Fatalf("corner %v reused", p)
		}
		seen[p] = true
	}
	// Distinct tiles for procs.
	tiles := map[Point]bool{}
	for proc, tp := range plan.ProcTile {
		if tp.R < 0 || tp.R >= plan.Rows || tp.C < 0 || tp.C >= plan.Cols {
			t.Fatalf("proc %d at %v outside grid", proc, tp)
		}
		if tiles[tp] {
			t.Fatalf("tile %v reused", tp)
		}
		tiles[tp] = true
	}
	if plan.SwitchArea != res.Net.NumSwitches() {
		t.Fatalf("switch area %d != switches %d", plan.SwitchArea, res.Net.NumSwitches())
	}
	if plan.LinkArea < 0 {
		t.Fatalf("negative link area")
	}
	// Every processor should sit adjacent to its switch (zero proc-link
	// area) for this small, well-clustered network.
	if plan.ProcLinkArea != 0 {
		t.Errorf("proc link area %d, want 0", plan.ProcLinkArea)
	}
}

func TestPlaceDeterministic(t *testing.T) {
	pat := nas.Figure1Pattern()
	res, err := synth.Synthesize(pat, synth.Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	a, err := Place(res.Net, Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Place(res.Net, Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if a.LinkArea != b.LinkArea || a.ProcLinkArea != b.ProcLinkArea {
		t.Fatalf("nondeterministic placement: %d/%d vs %d/%d",
			a.LinkArea, a.ProcLinkArea, b.LinkArea, b.ProcLinkArea)
	}
	// The search draws no random numbers: the seed does not matter.
	c, err := Place(res.Net, Options{Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, c) {
		t.Fatalf("plan depends on the seed:\n%+v\n%+v", a, c)
	}
}

func TestGeneratedBeatsMeshOnArea(t *testing.T) {
	// The Figure 7 direction: the CG-generated network should use less
	// switch area and less link area than the mesh.
	pat, err := nas.Generate("CG", 16, nas.Config{Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := synth.Synthesize(pat, synth.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Place(res.Net, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	meshSw, meshLink := MeshBaseline(16)
	if plan.SwitchArea >= meshSw {
		t.Errorf("switch area %d not below mesh %d", plan.SwitchArea, meshSw)
	}
	if plan.TotalArea() >= meshLink {
		t.Errorf("link area %d not below mesh %d", plan.TotalArea(), meshLink)
	}
}

func TestPlaceCrossbar(t *testing.T) {
	net := topology.Crossbar(4)
	plan, err := Place(net, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if plan.SwitchArea != 1 || plan.LinkArea != 0 {
		t.Fatalf("crossbar plan: %+v", plan)
	}
	// A 2x2 grid shares one interior corner among all four tiles: the
	// single switch can serve all processors at distance zero.
	if plan.ProcLinkArea != 0 {
		t.Errorf("crossbar proc link area %d, want 0", plan.ProcLinkArea)
	}
}

func TestLinkDelayMinimumOne(t *testing.T) {
	net := topology.New("d", 2)
	a, b := net.AddSwitch(), net.AddSwitch()
	net.AttachProc(0, a)
	net.AttachProc(1, b)
	net.SetPipe(a, b, 1)
	plan, err := Place(net, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if d := plan.LinkDelay(a, b); d < 1 {
		t.Fatalf("link delay %d < 1", d)
	}
}

func TestPlaceTooManySwitches(t *testing.T) {
	// 2 procs -> 1x2 tiles -> 2x3=6 corners; 7 switches cannot fit.
	net := topology.New("many", 2)
	for i := 0; i < 7; i++ {
		net.AddSwitch()
	}
	net.AttachProc(0, 0)
	net.AttachProc(1, 1)
	for i := 0; i < 6; i++ {
		net.SetPipe(topology.SwitchID(i), topology.SwitchID(i+1), 1)
	}
	if _, err := Place(net, Options{Seed: 1}); err == nil {
		t.Fatal("overfull lattice accepted")
	}
}

func TestRenderContainsEveryProcAndSwitch(t *testing.T) {
	pat := nas.Figure1Pattern()
	res, err := synth.Synthesize(pat, synth.Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Place(res.Net, Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	out := plan.Render(res.Net)
	for p := 0; p < pat.Procs; p++ {
		if !strings.Contains(out, fmt.Sprintf("p%d", p)) {
			t.Errorf("render missing processor %d:\n%s", p, out)
		}
	}
	for _, sw := range res.Net.Switches {
		if !strings.Contains(out, fmt.Sprintf("[S%d]", sw.ID)) {
			t.Errorf("render missing switch %d:\n%s", sw.ID, out)
		}
	}
}
