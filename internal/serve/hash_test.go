package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"

	"repro/internal/collective"
	"repro/internal/model"
	"repro/internal/nas"
	"repro/internal/obs"
	"repro/internal/synth"
	"repro/internal/trace"
)

// keyV1 is the text-rendering key Key replaced, kept as the oracle for the
// equivalence tests and the BenchmarkKeyRing64Reference twin: the SHA-256 of
// the noctrace v1 text followed by the NUL-separated fingerprints.
func keyV1(p *model.Pattern, opt synth.Options, extra ...string) string {
	h := sha256.New()
	_ = trace.Encode(h, p)
	io.WriteString(h, "\x00")
	io.WriteString(h, OptionsFingerprint(opt))
	for _, e := range extra {
		io.WriteString(h, "\x00")
		io.WriteString(h, e)
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil))
}

// corpusRequest is one named workload the server lists, at a size the
// tests run it at.
type corpusRequest struct {
	name  string
	procs int
}

// keyCorpus lists every NAS benchmark and collective the server serves,
// each at its small and large test size.
func keyCorpus() []corpusRequest {
	var out []corpusRequest
	for _, n := range nas.Names() {
		small, large := nas.PaperProcs(n)
		out = append(out, corpusRequest{n, small}, corpusRequest{n, large})
	}
	for _, n := range collective.Names() {
		small, large := collective.PaperNodes(n)
		out = append(out, corpusRequest{n, small}, corpusRequest{n, large})
	}
	return out
}

// clonePattern deep-copies p so a mutation cannot reach the original.
func clonePattern(p *model.Pattern) *model.Pattern {
	q := *p
	q.Messages = append([]model.Message(nil), p.Messages...)
	q.Phases = make([]model.Phase, len(p.Phases))
	for i, ph := range p.Phases {
		q.Phases[i] = ph
		q.Phases[i].Messages = append([]int(nil), ph.Messages...)
	}
	return &q
}

// TestKeyEquivalentToV1 pins the equivalence argument of the binary key: over
// the server's whole corpus and targeted mutations of one pattern, two
// requests share a v2 key exactly when they shared a v1 text key. The
// mutations cover each normalisation the text applies (a space in the name
// reads as '_', an empty label as "-", every NaN as "NaN") and each
// distinction it keeps (-0 vs 0, message order, phase references, Procs).
func TestKeyEquivalentToV1(t *testing.T) {
	srv := newTestServer(t, quickConfig())
	opt := quickConfig().Synth
	type variant struct {
		name string
		p    *model.Pattern
	}
	var vs []variant
	for _, c := range keyCorpus() {
		p, err := srv.generateWorkload(DesignRequest{Benchmark: c.name, Procs: c.procs})
		if err != nil {
			t.Fatalf("%s-%d: %v", c.name, c.procs, err)
		}
		vs = append(vs, variant{fmt.Sprintf("%s-%d", c.name, c.procs), p})
	}

	base, err := srv.generateWorkload(DesignRequest{Benchmark: "CG", Procs: 16})
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(name string, f func(p *model.Pattern)) {
		q := clonePattern(base)
		f(q)
		vs = append(vs, variant{name, q})
	}
	mutate("name with space", func(p *model.Pattern) { p.Name = "cg 16" })
	mutate("name with underscore", func(p *model.Pattern) { p.Name = "cg_16" })
	mutate("label empty", func(p *model.Pattern) { p.Phases[0].Label = "" })
	mutate("label dash", func(p *model.Pattern) { p.Phases[0].Label = "-" })
	mutate("start +0", func(p *model.Pattern) { p.Messages[0].Start = 0 })
	mutate("start -0", func(p *model.Pattern) { p.Messages[0].Start = math.Copysign(0, -1) })
	mutate("finish NaN", func(p *model.Pattern) { p.Messages[0].Finish = math.NaN() })
	mutate("finish other NaN", func(p *model.Pattern) { p.Messages[0].Finish = math.Float64frombits(0x7ff0000000000f00) })
	mutate("two messages swapped", func(p *model.Pattern) {
		p.Messages[0], p.Messages[1] = p.Messages[1], p.Messages[0]
	})
	mutate("phase reference added", func(p *model.Pattern) {
		p.Phases[0].Messages = append(p.Phases[0].Messages, 0)
	})
	mutate("procs +1", func(p *model.Pattern) { p.Procs++ })
	mutate("procs -1", func(p *model.Pattern) { p.Procs-- })

	v1 := make([]string, len(vs))
	v2 := make([]string, len(vs))
	v2Of := map[string]string{}
	for i, v := range vs {
		v1[i], v2[i] = keyV1(v.p, opt), Key(v.p, opt)
		v2Of[v.name] = v2[i]
	}
	for i := range vs {
		for j := i + 1; j < len(vs); j++ {
			if same1, same2 := v1[i] == v1[j], v2[i] == v2[j]; same1 != same2 {
				t.Errorf("%s vs %s: v1 keys equal = %t, v2 keys equal = %t", vs[i].name, vs[j].name, same1, same2)
			}
		}
	}

	// The mutations must exercise both sides of the equivalence.
	for _, pair := range [][2]string{
		{"name with space", "name with underscore"},
		{"label empty", "label dash"},
		{"finish NaN", "finish other NaN"},
	} {
		if v2Of[pair[0]] != v2Of[pair[1]] {
			t.Errorf("%s and %s keyed apart, want one key", pair[0], pair[1])
		}
	}
	if v2Of["start +0"] == v2Of["start -0"] {
		t.Error("-0 and 0 share a key, want distinct")
	}
}

// TestKeyInlineMatchesByName pins that a pattern keys the same whether the
// request names it or inlines its noctrace text, for every corpus pattern,
// so the two request forms share one cache entry.
func TestKeyInlineMatchesByName(t *testing.T) {
	srv := newTestServer(t, quickConfig())
	for _, c := range keyCorpus() {
		byName, err := json.Marshal(DesignRequest{Benchmark: c.name, Procs: c.procs})
		if err != nil {
			t.Fatal(err)
		}
		p, opt, _, _, err := srv.parseDesignRequest(byName)
		if err != nil {
			t.Fatalf("%s-%d: %v", c.name, c.procs, err)
		}
		var text strings.Builder
		if err := trace.Encode(&text, p); err != nil {
			t.Fatal(err)
		}
		inline, err := json.Marshal(DesignRequest{Trace: text.String()})
		if err != nil {
			t.Fatal(err)
		}
		q, qopt, _, _, err := srv.parseDesignRequest(inline)
		if err != nil {
			t.Fatalf("%s-%d inline: %v", c.name, c.procs, err)
		}
		if kn, ki := Key(p, opt), Key(q, qopt); kn != ki {
			t.Errorf("%s-%d: by-name key %s, inline key %s", c.name, c.procs, kn, ki)
		}
	}
}

// TestKeyExtraSeparates pins that the hier fingerprint components still
// split keys: adding one, changing one, and regrouping the same bytes
// across components all give distinct keys.
func TestKeyExtraSeparates(t *testing.T) {
	p, err := nas.Generate("CG", 16, nas.Config{Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	opt := synth.Options{Seed: 1, Restarts: 2}
	keys := map[string]string{}
	for name, extra := range map[string][]string{
		"flat":      nil,
		"hier 4":    {"hier=4 maxgw=0"},
		"hier 2":    {"hier=2 maxgw=0"},
		"split":     {"hier=4", " maxgw=0"},
		"empty":     {""},
		"two empty": {"", ""},
	} {
		k := Key(p, opt, extra...)
		if prev, ok := keys[k]; ok {
			t.Errorf("%s and %s share key %s", name, prev, k)
		}
		keys[k] = name
	}
}

func TestKeyStableAndWellFormed(t *testing.T) {
	p, err := nas.Generate("CG", 16, nas.Config{Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	opt := synth.Options{Seed: 1, Restarts: 2}
	k1 := Key(p, opt)
	k2 := Key(p, opt)
	if k1 != k2 {
		t.Errorf("same input hashed differently: %s vs %s", k1, k2)
	}
	if !strings.HasPrefix(k1, "sha256v2:") || len(k1) != len("sha256v2:")+64 || !isLowerHex(k1[len("sha256v2:"):]) {
		t.Errorf("malformed key %q", k1)
	}

	// A regenerated-but-identical pattern must produce the identical key:
	// the hash is content-addressed, not identity-addressed.
	p2, err := nas.Generate("CG", 16, nas.Config{Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := Key(p2, opt); got != k1 {
		t.Errorf("regenerated pattern hashed differently: %s vs %s", got, k1)
	}
}

func TestKeySensitivity(t *testing.T) {
	base := synth.Options{Seed: 1, Restarts: 2}
	p, err := nas.Generate("CG", 16, nas.Config{Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	baseKey := Key(p, base)

	// Output-affecting knobs must change the key.
	affecting := map[string]synth.Options{
		"seed":     {Seed: 2, Restarts: 2},
		"restarts": {Seed: 1, Restarts: 3},
		"maxdeg":   {Seed: 1, Restarts: 2, Constraints: synth.Constraints{MaxDegree: 7}},
	}
	for name, opt := range affecting {
		if Key(p, opt) == baseKey {
			t.Errorf("%s change did not change the key", name)
		}
	}

	// Workers and Obs are excluded by the determinism contract: any value
	// produces byte-identical output, so they must NOT fragment the cache.
	for name, opt := range map[string]synth.Options{
		"workers": {Seed: 1, Restarts: 2, Workers: 7},
		"obs":     {Seed: 1, Restarts: 2, Obs: obs.NewCollector()},
	} {
		if got := Key(p, opt); got != baseKey {
			t.Errorf("%s fragmented the cache: %s vs %s", name, got, baseKey)
		}
	}

	// A different pattern must change the key.
	fft, err := nas.Generate("FFT", 16, nas.Config{Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	if Key(fft, base) == baseKey {
		t.Error("different pattern produced the same key")
	}
}

func TestOptionsFingerprintNormalizes(t *testing.T) {
	// The zero Options and an explicitly-defaulted Options are the same
	// request; their fingerprints must agree.
	zero := OptionsFingerprint(synth.Options{})
	explicit := OptionsFingerprint(synth.Options{}.Normalized())
	if zero != explicit {
		t.Errorf("zero and normalized fingerprints differ:\n%s\n%s", zero, explicit)
	}
	if !strings.Contains(zero, "seed=") || !strings.Contains(zero, "maxdeg=") {
		t.Errorf("fingerprint missing fields: %s", zero)
	}
}

// ring64 is the largest pattern the server's hit path keys: ring-allreduce
// on 64 nodes at the collective defaults, ~1 MB of noctrace text.
func ring64(b *testing.B) *model.Pattern {
	p, err := collective.Generate("ring-allreduce", 64, collective.Config{})
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// keySink keeps the benchmarked key computations from being optimized away.
var keySink string

// BenchmarkKeyRing64 times Key on ring-allreduce-64, the by-name hit cost
// that dominated the server's hit traffic. `make bench-key` gates it
// against BenchmarkKeyRing64Reference.
func BenchmarkKeyRing64(b *testing.B) {
	p, opt := ring64(b), synth.Options{Restarts: 4}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		keySink = Key(p, opt)
	}
}

// BenchmarkKeyRing64Reference times the v1 text key on the same pattern.
func BenchmarkKeyRing64Reference(b *testing.B) {
	p, opt := ring64(b), synth.Options{Restarts: 4}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		keySink = keyV1(p, opt)
	}
}
