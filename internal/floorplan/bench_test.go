package floorplan

import (
	"testing"

	"repro/internal/collective"
	"repro/internal/nas"
	"repro/internal/synth"
	"repro/internal/topology"
)

// cg16Net is the Figure 1 CG-16 design at one synthesis restart.
func cg16Net(b *testing.B) *topology.Network {
	res, err := synth.Synthesize(nas.Figure1Pattern(), synth.Options{Seed: 1, Restarts: 1})
	if err != nil {
		b.Fatal(err)
	}
	return res.Net
}

// treeBroadcast64Net is the tree-broadcast-64 design at nocd defaults, the
// slowest placement of the offline design flow.
func treeBroadcast64Net(b *testing.B) *topology.Network {
	pat, err := collective.Generate("tree-broadcast", 64, collective.Config{})
	if err != nil {
		b.Fatal(err)
	}
	res, err := synth.Synthesize(pat, synth.Options{
		Constraints: synth.Constraints{MaxDegree: 5, MaxProcsPerSwitch: 4},
		Seed:        1,
		Restarts:    4,
	})
	if err != nil {
		b.Fatal(err)
	}
	return res.Net
}

func benchPlace(b *testing.B, net *topology.Network) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Place(net, Options{Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchReference times the map-based reference placer with the restart
// count its callers ran: one for CG-16 (this benchmark's old setting), the
// old default of four for tree-broadcast-64.
func benchReference(b *testing.B, net *topology.Network, restarts int) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		referencePlace(net, Options{Seed: 1}, restarts)
	}
}

func BenchmarkPlaceCG16(b *testing.B)          { benchPlace(b, cg16Net(b)) }
func BenchmarkPlaceCG16Reference(b *testing.B) { benchReference(b, cg16Net(b), 1) }

func BenchmarkPlaceTreeBroadcast64(b *testing.B) { benchPlace(b, treeBroadcast64Net(b)) }
func BenchmarkPlaceTreeBroadcast64Reference(b *testing.B) {
	benchReference(b, treeBroadcast64Net(b), 4)
}
