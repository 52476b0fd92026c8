package synth

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/collective"
	"repro/internal/model"
	"repro/internal/nas"
)

// TestPooledStateAcrossFlowUniverses runs patterns whose flow universes need
// one, one and then two bitset words through one process at nocd defaults
// with Workers 1, so every restart reuses the same pooled state. A pooled
// pipe set created for a one-word pattern must never index the wider
// pattern's flow IDs, and reuse must not change the design: the last
// design's bytes hash to the digest of a synthesis from an empty pool (the
// tree-broadcast-128 entry of pipebench/golden.json).
func TestPooledStateAcrossFlowUniverses(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping tree-broadcast-128 synthesis in -short mode")
	}
	const freshDigest = "008d57c80701c9f5ddc9c70ecba0f9340365e6477afca8d14a8863530022bd97"
	opt := Options{
		Constraints: Constraints{MaxDegree: 5, MaxProcsPerSwitch: 4},
		Seed:        1,
		Restarts:    4,
		Workers:     1,
	}
	fft, err := nas.Generate("FFT", 16, nas.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := collective.Generate("reduce-scatter", 64, collective.Config{})
	if err != nil {
		t.Fatal(err)
	}
	tb, err := collective.Generate("tree-broadcast", 128, collective.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var design []byte
	for _, p := range []*model.Pattern{fft, rs, tb} {
		res, err := Synthesize(p, opt)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		var buf bytes.Buffer
		if err := SaveDesign(&buf, res.Net, res.Table); err != nil {
			t.Fatal(err)
		}
		design = buf.Bytes()
	}
	sum := sha256.Sum256(design)
	if got := hex.EncodeToString(sum[:]); got != freshDigest {
		t.Fatalf("tree-broadcast-128 design after pooled-state reuse hashes to %s, want %s", got, freshDigest)
	}
}
