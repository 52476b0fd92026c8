package trace_test

import (
	"bytes"
	"testing"

	"repro/internal/collective"
	"repro/internal/model"
	"repro/internal/trace"
)

// ring64Text renders ring-allreduce on 64 nodes at the collective defaults:
// ~1 MB of noctrace, the largest inline trace the server's hit path decodes.
func ring64Text(b *testing.B) []byte {
	p, err := collective.Generate("ring-allreduce", 64, collective.Config{})
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.Encode(&buf, p); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

func benchDecode(b *testing.B, decode func(r *bytes.Reader) (*model.Pattern, error)) {
	text := ring64Text(b)
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := decode(bytes.NewReader(text)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeRing64 times Decode on the ring-allreduce-64 trace. `make
// bench-key` gates it against BenchmarkDecodeRing64Reference.
func BenchmarkDecodeRing64(b *testing.B) {
	benchDecode(b, func(r *bytes.Reader) (*model.Pattern, error) { return trace.Decode(r) })
}

// BenchmarkDecodeRing64Reference times the retained scanner decoder on the
// same trace.
func BenchmarkDecodeRing64Reference(b *testing.B) {
	benchDecode(b, func(r *bytes.Reader) (*model.Pattern, error) { return trace.DecodeReference(r) })
}
