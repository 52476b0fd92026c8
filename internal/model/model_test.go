package model

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func msg(id, src, dst int, start, finish float64) Message {
	return Message{ID: id, Src: src, Dst: dst, Start: start, Finish: finish, Bytes: 64}
}

func TestOverlaps(t *testing.T) {
	cases := []struct {
		name string
		a, b Message
		want bool
	}{
		{"disjoint", msg(0, 0, 1, 0, 1), msg(1, 2, 3, 2, 3), false},
		{"touching endpoints", msg(0, 0, 1, 0, 1), msg(1, 2, 3, 1, 2), true},
		{"nested", msg(0, 0, 1, 0, 10), msg(1, 2, 3, 2, 3), true},
		{"identical", msg(0, 0, 1, 1, 2), msg(1, 2, 3, 1, 2), true},
		{"partial", msg(0, 0, 1, 0, 5), msg(1, 2, 3, 3, 8), true},
		{"reverse disjoint", msg(0, 0, 1, 5, 6), msg(1, 2, 3, 0, 1), false},
		{"zero length same instant", msg(0, 0, 1, 3, 3), msg(1, 2, 3, 3, 3), true},
	}
	for _, c := range cases {
		if got := Overlaps(c.a, c.b); got != c.want {
			t.Errorf("%s: Overlaps=%v, want %v", c.name, got, c.want)
		}
		if got := Overlaps(c.b, c.a); got != c.want {
			t.Errorf("%s (swapped): Overlaps=%v, want %v", c.name, got, c.want)
		}
	}
}

func TestPatternValidate(t *testing.T) {
	good := &Pattern{Name: "ok", Procs: 4, Messages: []Message{msg(0, 0, 3, 0, 1)}}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid pattern rejected: %v", err)
	}
	bad := []*Pattern{
		{Name: "zero procs", Procs: 0},
		{Name: "src range", Procs: 2, Messages: []Message{msg(0, 2, 0, 0, 1)}},
		{Name: "dst range", Procs: 2, Messages: []Message{msg(0, 0, -1, 0, 1)}},
		{Name: "time order", Procs: 2, Messages: []Message{msg(0, 0, 1, 5, 1)}},
		{Name: "neg bytes", Procs: 2, Messages: []Message{{Src: 0, Dst: 1, Start: 0, Finish: 1, Bytes: -1}}},
		{Name: "phase index", Procs: 2, Phases: []Phase{{Messages: []int{0}}}},
		{Name: "neg gap", Procs: 2, Messages: []Message{msg(0, 0, 1, 0, 1)},
			Phases: []Phase{{Messages: []int{0}, ComputeAfter: -1}}},
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("%s: invalid pattern accepted", p.Name)
		}
	}
}

// TestPatternValidateNonFinite pins that NaN and ±Inf times are rejected in
// every time field. The ordered checks (Finish < Start, ComputeAfter < 0)
// are all false for NaN, so without the finiteness check
// "msg 0 0 1 NaN NaN 8" reached synthesis through an inline trace.
func TestPatternValidateNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	withMsg := func(start, finish float64) *Pattern {
		return &Pattern{Procs: 2, Messages: []Message{msg(0, 0, 1, start, finish)}}
	}
	withPhase := func(start, finish, gap float64) *Pattern {
		return &Pattern{Procs: 2, Messages: []Message{msg(0, 0, 1, 0, 1)},
			Phases: []Phase{{Start: start, Finish: finish, ComputeAfter: gap, Messages: []int{0}}}}
	}
	cases := []struct {
		name string
		p    *Pattern
		ok   bool
	}{
		{"finite", withPhase(0, 1, 0.5), true},
		{"negative zero", withMsg(math.Copysign(0, -1), 0), true},
		{"msg start NaN", withMsg(nan, 1), false},
		{"msg finish NaN", withMsg(0, nan), false},
		{"msg both NaN", withMsg(nan, nan), false},
		{"msg finish +Inf", withMsg(0, inf), false},
		{"msg start -Inf", withMsg(-inf, 0), false},
		{"phase start NaN", withPhase(nan, 1, 0), false},
		{"phase finish +Inf", withPhase(0, inf, 0), false},
		{"phase start -Inf", withPhase(-inf, 1, 0), false},
		{"phase gap NaN", withPhase(0, 1, nan), false},
		{"phase gap +Inf", withPhase(0, 1, inf), false},
	}
	for _, c := range cases {
		if err := c.p.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%t", c.name, err, c.ok)
		}
	}
}

func TestPatternFlows(t *testing.T) {
	p := &Pattern{Procs: 4, Messages: []Message{
		msg(0, 1, 2, 0, 1), msg(1, 2, 1, 0, 1), msg(2, 1, 2, 5, 6), msg(3, 3, 3, 0, 1),
	}}
	flows := p.Flows()
	want := []Flow{{1, 2}, {2, 1}}
	if len(flows) != len(want) {
		t.Fatalf("Flows() = %v, want %v", flows, want)
	}
	for i := range want {
		if flows[i] != want[i] {
			t.Fatalf("Flows() = %v, want %v", flows, want)
		}
	}
}

func TestSpanAndTotalBytes(t *testing.T) {
	p := &Pattern{Procs: 4, Messages: []Message{
		msg(0, 0, 1, 3, 9), msg(1, 1, 2, 1, 4), msg(2, 2, 3, 5, 12),
	}}
	s, f := p.Span()
	if s != 1 || f != 12 {
		t.Fatalf("Span() = (%g,%g), want (1,12)", s, f)
	}
	if got := p.TotalBytes(); got != 3*64 {
		t.Fatalf("TotalBytes() = %d, want %d", got, 3*64)
	}
	empty := &Pattern{Procs: 1}
	s, f = empty.Span()
	if s != 0 || f != 0 {
		t.Fatalf("empty Span() = (%g,%g), want (0,0)", s, f)
	}
}

func TestContentionPeriodsSimple(t *testing.T) {
	// Two disjoint phases, the second containing two overlapping messages.
	p := &Pattern{Procs: 6, Messages: []Message{
		msg(0, 0, 1, 0, 1),
		msg(1, 2, 3, 2, 3),
		msg(2, 4, 5, 2, 3),
	}}
	periods := ContentionPeriods(p)
	if len(periods) != 2 {
		t.Fatalf("got %d periods (%v), want 2", len(periods), periods)
	}
	if !periods[0].Equal(NewClique(Flow{0, 1})) {
		t.Errorf("period 0 = %v, want {(0,1)}", periods[0])
	}
	if !periods[1].Equal(NewClique(Flow{2, 3}, Flow{4, 5})) {
		t.Errorf("period 1 = %v, want {(2,3),(4,5)}", periods[1])
	}
}

func TestContentionPeriodsTouching(t *testing.T) {
	// Message 1 starts exactly when message 0 finishes: per Definition 3
	// they overlap, so there must be a period containing both flows.
	p := &Pattern{Procs: 4, Messages: []Message{
		msg(0, 0, 1, 0, 5),
		msg(1, 2, 3, 5, 9),
	}}
	periods := ContentionPeriods(p)
	found := false
	for _, c := range periods {
		if c.Contains(Flow{0, 1}) && c.Contains(Flow{2, 3}) {
			found = true
		}
	}
	if !found {
		t.Fatalf("no period holds both touching flows; periods=%v", periods)
	}
}

func TestCliqueOps(t *testing.T) {
	a := NewClique(Flow{3, 4}, Flow{1, 2}, Flow{1, 2}, Flow{5, 5})
	if len(a) != 2 {
		t.Fatalf("NewClique dedup/self-flow removal failed: %v", a)
	}
	if !a[0].Less(a[1]) {
		t.Fatalf("NewClique not sorted: %v", a)
	}
	b := NewClique(Flow{1, 2}, Flow{3, 4}, Flow{9, 0})
	if !a.SubsetOf(b) {
		t.Errorf("%v should be subset of %v", a, b)
	}
	if b.SubsetOf(a) {
		t.Errorf("%v should not be subset of %v", b, a)
	}
	if !a.Contains(Flow{1, 2}) || a.Contains(Flow{2, 1}) {
		t.Errorf("Contains wrong on %v", a)
	}
	if !a.Equal(NewClique(Flow{1, 2}, Flow{3, 4})) {
		t.Errorf("Equal failed")
	}
	inter := b.Intersect(map[Flow]bool{{9, 0}: true, {1, 2}: true})
	if len(inter) != 2 {
		t.Errorf("Intersect = %v, want 2 flows", inter)
	}
}

func TestMaxCliques(t *testing.T) {
	c1 := NewClique(Flow{1, 2}, Flow{2, 3})
	c2 := NewClique(Flow{1, 2}, Flow{2, 3}, Flow{3, 4})
	c3 := NewClique(Flow{5, 6})
	got := MaxCliques([]Clique{c1, c2, c3})
	if len(got) != 2 {
		t.Fatalf("MaxCliques kept %d cliques (%v), want 2", len(got), got)
	}
	if !got[0].Equal(c2) || !got[1].Equal(c3) {
		t.Fatalf("MaxCliques = %v, want [%v %v]", got, c2, c3)
	}
}

func TestMaxCliquesEqualDuplicates(t *testing.T) {
	c := NewClique(Flow{1, 2}, Flow{2, 3})
	got := MaxCliques([]Clique{c, NewClique(Flow{2, 3}, Flow{1, 2})})
	if len(got) != 1 {
		t.Fatalf("duplicate cliques not collapsed: %v", got)
	}
}

func TestContentionSetMatchesPairwiseOverlap(t *testing.T) {
	// The contention set built from cliques must equal the pairwise
	// overlap relation projected onto distinct flow pairs.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		p := randomPattern(rng, 8, 20)
		fromCliques := ContentionSet(p)
		direct := NewPairSet()
		for _, pr := range p.OverlapPairs() {
			a, b := p.Messages[pr[0]].Flow(), p.Messages[pr[1]].Flow()
			if a.Src == a.Dst || b.Src == b.Dst || a == b {
				continue
			}
			direct.Add(a, b)
		}
		if len(fromCliques) != len(direct) {
			t.Fatalf("trial %d: |C| from cliques %d != from overlap %d", trial, len(fromCliques), len(direct))
		}
		for pr := range direct {
			if !fromCliques.Has(pr.A, pr.B) {
				t.Fatalf("trial %d: pair %v missing from clique-derived C", trial, pr)
			}
		}
	}
}

func randomPattern(rng *rand.Rand, procs, msgs int) *Pattern {
	p := &Pattern{Name: "rand", Procs: procs}
	for i := 0; i < msgs; i++ {
		s := rng.Intn(procs)
		d := rng.Intn(procs)
		t0 := rng.Float64() * 10
		p.Messages = append(p.Messages, Message{
			ID: i, Src: s, Dst: d, Start: t0, Finish: t0 + rng.Float64()*3, Bytes: 16,
		})
	}
	return p
}

func TestPairSetBasics(t *testing.T) {
	s := NewPairSet()
	s.Add(Flow{1, 2}, Flow{3, 4})
	if !s.Has(Flow{3, 4}, Flow{1, 2}) {
		t.Fatal("PairSet not symmetric")
	}
	s.Add(Flow{3, 4}, Flow{1, 2})
	if s.Len() != 1 {
		t.Fatalf("duplicate unordered pair stored twice: len=%d", s.Len())
	}
	other := NewPairSet()
	other.Add(Flow{1, 2}, Flow{3, 4})
	other.Add(Flow{5, 6}, Flow{7, 8})
	inter := s.Intersect(other)
	if len(inter) != 1 || inter[0] != MakeFlowPair(Flow{1, 2}, Flow{3, 4}) {
		t.Fatalf("Intersect = %v", inter)
	}
}

func TestTheorem1(t *testing.T) {
	c := NewPairSet()
	c.Add(Flow{0, 1}, Flow{2, 3})
	r := NewPairSet()
	r.Add(Flow{4, 5}, Flow{6, 7})
	if free, w := ContentionFree(c, r); !free || len(w) != 0 {
		t.Fatalf("disjoint C and R should be contention-free, got %v", w)
	}
	r.Add(Flow{2, 3}, Flow{0, 1})
	free, w := ContentionFree(c, r)
	if free || len(w) != 1 {
		t.Fatalf("overlapping C and R should not be contention-free, witnesses=%v", w)
	}
}

// Property: MakeFlowPair is order-insensitive and canonical.
func TestFlowPairCanonicalProperty(t *testing.T) {
	f := func(a1, a2, b1, b2 uint8) bool {
		a := Flow{int(a1 % 16), int(a2 % 16)}
		b := Flow{int(b1 % 16), int(b2 % 16)}
		p, q := MakeFlowPair(a, b), MakeFlowPair(b, a)
		return p == q && !q.B.Less(q.A)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: every pair of messages overlapping per Definition 3 appears
// together in at least one contention period.
func TestOverlapImpliesSharedPeriodProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		p := randomPattern(rng, 6, 15)
		periods := ContentionPeriods(p)
		for i := 0; i < len(p.Messages); i++ {
			for j := i + 1; j < len(p.Messages); j++ {
				mi, mj := p.Messages[i], p.Messages[j]
				if !Overlaps(mi, mj) {
					continue
				}
				fi, fj := mi.Flow(), mj.Flow()
				if fi.Src == fi.Dst || fj.Src == fj.Dst {
					continue
				}
				found := false
				for _, c := range periods {
					if c.Contains(fi) && c.Contains(fj) {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("trial %d: overlapping messages %v,%v share no period", trial, mi, mj)
				}
			}
		}
	}
}

// Property: MaxCliques output has no subset relation between any two cliques
// and covers the same flow universe.
func TestMaxCliquesProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 40; trial++ {
		p := randomPattern(rng, 8, 25)
		all := ContentionPeriods(p)
		maxed := MaxCliques(all)
		for i := range maxed {
			for j := range maxed {
				if i != j && maxed[i].SubsetOf(maxed[j]) {
					t.Fatalf("trial %d: clique %v ⊆ %v survived reduction", trial, maxed[i], maxed[j])
				}
			}
		}
		u1, u2 := CliqueFlows(all), CliqueFlows(maxed)
		if len(u1) != len(u2) {
			t.Fatalf("trial %d: flow universe changed: %d vs %d", trial, len(u1), len(u2))
		}
		for i := range u1 {
			if u1[i] != u2[i] {
				t.Fatalf("trial %d: flow universes differ", trial)
			}
		}
		// And the pairwise contention sets must be identical.
		c1, c2 := ContentionSetFromCliques(all), ContentionSetFromCliques(maxed)
		if len(c1) != len(c2) {
			t.Fatalf("trial %d: contention set changed by reduction: %d vs %d", trial, len(c1), len(c2))
		}
	}
}

func TestOverlapPairsMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		p := randomPattern(rng, 5, 18)
		got := p.OverlapPairs()
		gotSet := make(map[[2]int]bool)
		for _, pr := range got {
			if pr[0] >= pr[1] {
				t.Fatalf("pair not ordered: %v", pr)
			}
			gotSet[pr] = true
		}
		count := 0
		for i := 0; i < len(p.Messages); i++ {
			for j := i + 1; j < len(p.Messages); j++ {
				if Overlaps(p.Messages[i], p.Messages[j]) {
					count++
					if !gotSet[[2]int{i, j}] {
						t.Fatalf("missing overlap pair (%d,%d)", i, j)
					}
				}
			}
		}
		if count != len(gotSet) {
			t.Fatalf("overlap count %d != brute force %d", len(gotSet), count)
		}
	}
}

func TestCliqueFlowsSorted(t *testing.T) {
	cliques := []Clique{NewClique(Flow{5, 1}, Flow{0, 2}), NewClique(Flow{0, 2}, Flow{3, 3}, Flow{1, 0})}
	flows := CliqueFlows(cliques)
	if !sort.SliceIsSorted(flows, func(i, j int) bool { return flows[i].Less(flows[j]) }) {
		t.Fatalf("CliqueFlows not sorted: %v", flows)
	}
	if len(flows) != 3 {
		t.Fatalf("CliqueFlows = %v, want 3 distinct flows", flows)
	}
}
