package model

import "sort"

// pairSet is the map-based contention representation that ConflictMatrix
// replaced: a set of unordered flow pairs standing for C (Definition 4) or R
// (Definition 7). It survives only as the oracle the dense kernel is pinned
// against (TestConflictMatrixMatchesPairSet, TestKernelEquivalenceNAS).
type pairSet map[FlowPair]struct{}

func newPairSet() pairSet { return make(pairSet) }

// Add inserts the unordered pair {a, b}.
func (s pairSet) Add(a, b Flow) { s[MakeFlowPair(a, b)] = struct{}{} }

// Has reports whether the unordered pair {a, b} is present.
func (s pairSet) Has(a, b Flow) bool {
	_, ok := s[MakeFlowPair(a, b)]
	return ok
}

// Len returns the number of pairs.
func (s pairSet) Len() int { return len(s) }

// Intersect returns the pairs present in both sets, sorted by (A, B).
func (s pairSet) Intersect(t pairSet) []FlowPair {
	small, large := s, t
	if len(t) < len(s) {
		small, large = t, s
	}
	var out []FlowPair
	for p := range small {
		if _, ok := large[p]; ok {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A.Less(out[j].A)
		}
		return out[i].B.Less(out[j].B)
	})
	return out
}

// contentionSetFromCliques expands a clique set into the pairwise
// contention set it induces.
func contentionSetFromCliques(cliques []Clique) pairSet {
	s := newPairSet()
	for _, c := range cliques {
		for i := 0; i < len(c); i++ {
			for j := i + 1; j < len(c); j++ {
				s.Add(c[i], c[j])
			}
		}
	}
	return s
}

// contentionFree is Theorem 1 on the map representation: C ∩ R = ∅, with
// the sorted witness list.
func contentionFree(c, r pairSet) (bool, []FlowPair) {
	w := c.Intersect(r)
	return len(w) == 0, w
}
