package model_test

import (
	"math/rand"
	"testing"

	"repro/internal/model"
	"repro/internal/nas"
)

// randomRelations draws the same random pair population into both
// representations.
func randomRelations(rng *rand.Rand, ix *model.FlowIndex, density float64) (model.RefPairSet, *model.ConflictMatrix) {
	ps := model.NewRefPairSet()
	cm := model.NewConflictMatrix(ix)
	n := ix.Len()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < density {
				ps.Add(ix.Flow(i), ix.Flow(j))
				cm.Add(i, j)
			}
		}
	}
	return ps, cm
}

// TestKernelEquivalenceNAS pins the dense contention kernel to the map
// oracle on every NAS benchmark: C built from the maximum clique set, the
// C ∩ R intersection, and Theorem 1's verdict with witness identity and
// order, against random R populations.
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
			cSet := model.RefContentionSetFromCliques(cliques)
			cMat := model.ConflictMatrixFromCliques(ix, cliques)
			if cSet.Len() != cMat.Len() {
				t.Fatalf("|C| = %d, oracle %d", cMat.Len(), cSet.Len())
			}
			rng := rand.New(rand.NewSource(int64(len(name)) * 1009))
			for trial := 0; trial < 20; trial++ {
				rSet, rMat := randomRelations(rng, ix, 0.02)
				wantPairs := cSet.Intersect(rSet)
				gotPairs := cMat.Intersect(rMat)
				if len(wantPairs) != len(gotPairs) {
					t.Fatalf("trial %d: Intersect sizes %d vs %d", trial, len(gotPairs), len(wantPairs))
				}
				for i := range wantPairs {
					if wantPairs[i] != gotPairs[i] {
						t.Fatalf("trial %d: Intersect[%d] = %v, want %v", trial, i, gotPairs[i], wantPairs[i])
					}
				}
				wantFree, wantWit := model.RefContentionFree(cSet, rSet)
				gotFree, gotWit := model.ContentionFreeBits(cMat, rMat)
				if wantFree != gotFree || len(wantWit) != len(gotWit) {
					t.Fatalf("trial %d: ContentionFreeBits = (%v, %d wit), want (%v, %d wit)",
						trial, gotFree, len(gotWit), wantFree, len(wantWit))
				}
				for i := range wantWit {
					if wantWit[i] != gotWit[i] {
						t.Fatalf("trial %d: witness[%d] = %v, want %v", trial, i, gotWit[i], wantWit[i])
					}
				}
			}
		})
	}
}
