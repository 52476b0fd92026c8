package coloring

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/model"
	"repro/internal/nas"
)

// TestKernelEquivalenceNAS pins the dense coloring kernel to the map
// oracles on every NAS benchmark: Fast_Color, the pipe-direction conflict
// graph, and its formal coloring, on random flow subsets standing for pipe
// directions.
func TestKernelEquivalenceNAS(t *testing.T) {
	for _, name := range nas.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			pat, err := nas.Generate(name, 16, nas.Config{Iterations: 1})
			if err != nil {
				t.Fatal(err)
			}
			cliques := model.MaxCliqueSet(pat)
			ix := model.NewFlowIndex(pat.Flows())
			cliqueBits := ix.CliqueBits(cliques)
			cMat := model.ConflictMatrixFromCliques(ix, cliques)
			cRef := contentionRef(cliques)
			rng := rand.New(rand.NewSource(int64(len(name)) * 1009))
			for trial := 0; trial < 50; trial++ {
				sub := map[model.Flow]bool{}
				var list []model.Flow
				bits := model.NewBitSet(ix.Len())
				for i := 0; i < ix.Len(); i++ {
					if rng.Intn(3) == 0 {
						sub[ix.Flow(i)] = true
						list = append(list, ix.Flow(i))
						bits.Set(i)
					}
				}
				want := fastColorRef(cliques, sub)
				if got := FastColorBits(cliqueBits, bits); got != want {
					t.Fatalf("trial %d: FastColorBits = %d, map oracle = %d", trial, got, want)
				}
				if trial%5 != 0 {
					continue
				}
				ref := buildConflictGraphRef(list, cRef)
				sameGraph(t, BuildConflictGraphBits(bits, cMat), ref)
				wk, wa, wx := colorGraph(ref, nil)
				gk, ga, gx := ColorPipeDirectionBits(bits, cMat)
				if gk != wk || gx != wx || !reflect.DeepEqual(ga, wa) {
					t.Fatalf("trial %d: ColorPipeDirectionBits = (%d, exact %v), oracle (%d, exact %v)", trial, gk, gx, wk, wx)
				}
			}
		})
	}
}
