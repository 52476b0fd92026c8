package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"

	"repro/internal/model"
	"repro/internal/synth"
	"repro/internal/trace"
)

// keyPrefix starts every cache key Key returns. It names the key scheme:
// a fleet must run one scheme, and the disk store treats entries under any
// other prefix as stale (see diskstore.go).
const keyPrefix = "sha256v2:"

// Key computes the content-addressed cache key for one design request:
// keyPrefix plus the hex SHA-256 of
//
//	canonical(pattern) field(OptionsFingerprint(opt)) field(extra)...
//
// where canonical is trace.WriteCanonical and field is a uvarint byte length
// followed by the bytes. The canonical encoding hashes the same normalised
// fields the noctrace v1 text carries, in binary, so two patterns share a key
// exactly when they share their Encode text, without rendering a float.
// Patterns arriving as inline traces are decoded before hashing, so comment
// lines, blank lines, and whitespace variations never split the cache;
// reordering message lines does produce a distinct key, which costs at most
// a duplicate synthesis, never a wrong answer.
//
// Extra fingerprint components (in order) extend the key for request
// families beyond flat synthesis — a hierarchical request appends its
// canonical cluster spec and per-level knobs, so differently spelled but
// equivalent cluster specs share an entry.
func Key(p *model.Pattern, opt synth.Options, extra ...string) string {
	h := sha256.New()
	// Writes to an in-memory hash cannot fail.
	_ = trace.WriteCanonical(h, p)
	writeField(h, OptionsFingerprint(opt))
	for _, e := range extra {
		writeField(h, e)
	}
	var sum [sha256.Size]byte
	return keyPrefix + hex.EncodeToString(h.Sum(sum[:0]))
}

// writeField writes s length-first, so consecutive fields never run together.
// w is a hash, whose writes never fail.
func writeField(w io.Writer, s string) {
	var n [binary.MaxVarintLen64]byte
	w.Write(binary.AppendUvarint(n[:0], uint64(len(s))))
	io.WriteString(w, s)
}

// OptionsFingerprint renders every synth.Options knob that can change the
// synthesized bytes. Workers is deliberately absent — the determinism
// contract guarantees byte-identical designs for every worker count — and
// Obs is telemetry, so requests differing only in those collapse onto one
// cache entry. SeedDesign IS included (a warm start changes where the search
// begins, hence the bytes); the server computes request keys before
// injecting a seed, so warm-started responses are stored under the cold
// request's key — see the warm-index determinism note in warm.go.
// ReferenceMoveEngine is deliberately absent too: it selects the retained
// pre-incremental move evaluator, which the synth equivalence suite pins
// byte-identical to the default engine, so it cannot change the bytes.
// Fields are spelled out (not reflected) so adding an option later forces a
// conscious decision about whether it belongs in the key.
func OptionsFingerprint(opt synth.Options) string {
	o := opt.Normalized()
	return fmt.Sprintf("maxdeg=%d maxprocs=%d seed=%d restarts=%d anneal=%g/%g/%d nobestroute=%t noglobalrefine=%t greedycolor=%t maxrounds=%d seedfp=%s",
		o.MaxDegree, o.MaxProcsPerSwitch, o.Seed, o.Restarts,
		o.Anneal.InitialTemp, o.Anneal.Cooling, o.Anneal.Steps,
		o.DisableBestRoute, o.DisableGlobalRefine, o.GreedyFinalColoring, o.MaxRounds,
		o.SeedDesign.Fingerprint())
}
