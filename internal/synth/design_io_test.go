package synth

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/nas"
)

func TestSaveLoadDesignRoundTrip(t *testing.T) {
	pat := nas.Figure1Pattern()
	res, err := Synthesize(pat, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveDesign(&buf, res.Net, res.Table); err != nil {
		t.Fatal(err)
	}
	net, table, err := LoadDesign(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if net.NumSwitches() != res.Net.NumSwitches() || net.TotalLinks() != res.Net.TotalLinks() {
		t.Fatalf("topology changed: %d/%d vs %d/%d",
			net.NumSwitches(), net.TotalLinks(), res.Net.NumSwitches(), res.Net.TotalLinks())
	}
	for p := 0; p < net.Procs; p++ {
		if net.Home[p] != res.Net.Home[p] {
			t.Fatalf("home of proc %d changed", p)
		}
	}
	if len(table.Routes) != len(res.Table.Routes) {
		t.Fatalf("routes: %d vs %d", len(table.Routes), len(res.Table.Routes))
	}
	for f, want := range res.Table.Routes {
		got, ok := table.Routes[f]
		if !ok {
			t.Fatalf("flow %v lost", f)
		}
		if len(got.Switches) != len(want.Switches) {
			t.Fatalf("flow %v route length changed", f)
		}
		for i := range want.Switches {
			if got.Switches[i] != want.Switches[i] {
				t.Fatalf("flow %v switch %d changed", f, i)
			}
		}
		for i := range want.Links {
			if got.Links[i] != want.Links[i] {
				t.Fatalf("flow %v link assignment changed at hop %d", f, i)
			}
		}
	}
	// Theorem 1 must survive serialization.
	ix := model.NewFlowIndex(pat.Flows())
	c := model.ConflictMatrixFromCliques(ix, model.ContentionPeriods(pat))
	free, _ := model.ContentionFreeBits(c, table.ConflictMatrix(ix))
	if !free {
		t.Fatal("loaded design not contention-free")
	}
}

func TestLoadDesignRejectsBad(t *testing.T) {
	bad := []string{
		`{`,
		`{"name":"x","procs":2,"switches":[[0,9]],"pipes":[],"routes":[]}`,
		// Route through a nonexistent pipe.
		`{"name":"x","procs":2,"switches":[[0],[1]],"pipes":[{"a":0,"b":1,"width":1}],
		  "routes":[{"src":0,"dst":1,"switches":[1,0],"links":[0]}]}`,
	}
	for i, s := range bad {
		if _, _, err := LoadDesign(strings.NewReader(s)); err == nil {
			t.Errorf("case %d: invalid design accepted", i)
		}
	}
}

// malformedDesigns are inputs that used to panic LoadDesign (makeslice,
// self pipe, out-of-range route endpoint) or load a silently different
// network, keyed by what is wrong with them.
var malformedDesigns = map[string]string{
	"negative procs":         `{"name":"x","procs":-1,"switches":[],"pipes":[],"routes":[]}`,
	"zero procs":             `{"name":"x","procs":0,"switches":[[]],"pipes":[],"routes":[]}`,
	"procs beyond listed":    `{"name":"x","procs":1000000000000,"switches":[[0]],"pipes":[],"routes":[]}`,
	"self pipe":              `{"name":"x","procs":2,"switches":[[0],[1]],"pipes":[{"a":0,"b":0,"width":1}],"routes":[]}`,
	"pipe to missing switch": `{"name":"x","procs":2,"switches":[[0],[1]],"pipes":[{"a":0,"b":2,"width":1}],"routes":[]}`,
	"negative pipe endpoint": `{"name":"x","procs":2,"switches":[[0],[1]],"pipes":[{"a":-1,"b":1,"width":1}],"routes":[]}`,
	"zero-width pipe":        `{"name":"x","procs":2,"switches":[[0],[1]],"pipes":[{"a":0,"b":1,"width":0}],"routes":[]}`,
	"duplicate pipe": `{"name":"x","procs":2,"switches":[[0],[1]],
		"pipes":[{"a":0,"b":1,"width":1},{"a":1,"b":0,"width":2}],"routes":[]}`,
	"route src out of range": `{"name":"x","procs":1,"switches":[[0]],"pipes":[],
		"routes":[{"src":5,"dst":0,"switches":[0],"links":[]}]}`,
	"route dst negative": `{"name":"x","procs":1,"switches":[[0]],"pipes":[],
		"routes":[{"src":0,"dst":-1,"switches":[0],"links":[]}]}`,
	"processor under two switches": `{"name":"x","procs":2,"switches":[[0,1],[1]],
		"pipes":[{"a":0,"b":1,"width":1}],"routes":[]}`,
}

func TestLoadDesignRejectsMalformed(t *testing.T) {
	for name, text := range malformedDesigns {
		t.Run(name, func(t *testing.T) {
			if _, _, err := LoadDesign(strings.NewReader(text)); err == nil {
				t.Error("malformed design accepted")
			}
		})
	}
}

// FuzzLoadDesign feeds arbitrary bytes to LoadDesign. It must never panic,
// and any design it accepts must round-trip LoadDesign → SaveDesign →
// LoadDesign → SaveDesign byte-stably.
func FuzzLoadDesign(f *testing.F) {
	cg, err := nas.Generate("CG", 16, nas.Config{Iterations: 1})
	if err != nil {
		f.Fatal(err)
	}
	for _, pat := range []*model.Pattern{nas.Figure1Pattern(), cg} {
		res, err := Synthesize(pat, Options{Seed: 1})
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := SaveDesign(&buf, res.Net, res.Table); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	for _, text := range malformedDesigns {
		f.Add([]byte(text))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		net, table, err := LoadDesign(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := SaveDesign(&first, net, table); err != nil {
			t.Fatalf("saving an accepted design: %v", err)
		}
		net2, table2, err := LoadDesign(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("reloading a saved design: %v", err)
		}
		if err := SaveDesign(&second, net2, table2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("round trip not byte-stable:\n%s\nvs\n%s", first.Bytes(), second.Bytes())
		}
	})
}
