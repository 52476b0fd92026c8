package trace

import (
	"bufio"
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// FuzzParseTrace checks two properties of the noctrace v1 codec on
// arbitrary input: Decode never panics, and on every input it accepts,
// parse → serialize → parse is a fixed point (the second encoding is
// byte-identical to the first).
func FuzzParseTrace(f *testing.F) {
	seeds := []string{
		"noctrace v1\nprocs 2\nmsg 0 0 1 0 1 8\n",
		"noctrace v1\nname cg.4\nprocs 4\nmsg 0 0 1 0 1.5 64\nmsg 1 2 3 0.5 2 32\nphase p0 0 2 1 0 1\n",
		"# comment\n\nnoctrace v1\nprocs 1\n",
		"noctrace v1\nprocs 3\nmsg 7 0 2 0.25 0.75 16\nphase - 0 1 0 0\n",
		// Corrupt or odd inputs that must not crash the parser.
		"noctrace v2\nprocs 2\n",
		"noctrace v1\nprocs -2\n",
		"noctrace v1\nprocs 2\nmsg 0 0 9 0 1 8\n",
		"noctrace v1\nprocs 2\nmsg 0 0 1 2 1 8\n",
		"noctrace v1\nprocs 2\nmsg 0 0 1 0 1\n",
		"noctrace v1\nprocs 2\nphase a 0 1 0 99\n",
		"noctrace v1\nbogus directive\n",
		"noctrace v1\nprocs 2\nmsg 0 0 1 NaN 1 8\n",
		"",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := Encode(&first, p); err != nil {
			t.Fatalf("Encode of accepted pattern failed: %v", err)
		}
		p2, err := Decode(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-Decode of own encoding failed: %v\nencoding:\n%s", err, first.String())
		}
		var second bytes.Buffer
		if err := Encode(&second, p2); err != nil {
			t.Fatalf("second Encode failed: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("parse→serialize→parse not a fixed point\nfirst:\n%s\nsecond:\n%s", first.String(), second.String())
		}
	})
}

// FuzzDecodeMatchesReference checks Decode against the retained scanner
// decoder on arbitrary input: both accept and build reflect.DeepEqual
// patterns, or both reject with the same error. The seeds cover the corners
// where a hand-rolled line and field splitter could drift from
// bufio.Scanner + strings.TrimSpace/Fields: CRLF and lone CR, tabs and
// vertical tabs, Unicode spaces (U+00A0, U+0085, U+2028, U+3000), invalid
// UTF-8, comments mid-file and mid-line, a line over the 1 MiB cap, and NaN
// times. TestDecodeLineCap pins the cap's exact boundary. Growing the
// over-cap seed stalls the fuzzer in input minimization, so `make fuzz`
// bounds minimization for this target.
func FuzzDecodeMatchesReference(f *testing.F) {
	long := strings.Repeat("x", maxLine+1)
	seeds := []string{
		"noctrace v1\nprocs 2\nmsg 0 0 1 0 1 8\n",
		"noctrace v1\r\nname a\r\nprocs 2\r\nmsg 0 0 1 0 1 8\r\nphase p 0 1 0 0\r\n",
		"noctrace v1\rprocs 2\r",
		"noctrace v1\nprocs 2\r\r\nmsg 0 0 1 0 1 8",
		"\tnoctrace\tv1\nprocs\t2\nmsg\t0 0\t1 0\v1 8\f\n",
		"noctrace v1\nprocs 2\nmsg 0 0 1 0 1 8\nphase\u0085p 0 1 0 0\n",
		"　noctrace v1 \nprocs 2 \n",
		"noctrace v1\nname \xff\xfe\nprocs 2\nmsg 0 0 1 0 1 8\xc2\n",
		"noctrace v1\nname a\xc2\x85b\nprocs 1\n",
		"# top\nnoctrace v1\n  # indented comment\nprocs 2\n# mid\nmsg 0 0 1 0 1 8\n#\nphase - 0 1 0 0 # trailing\n",
		"noctrace v1\nname a#b\nprocs 1\n",
		"noctrace v1\nprocs 2\nmsg 0 0 1 NaN NaN 8\n",
		"noctrace v1\nprocs 2\nmsg 0 0 1 0 +Inf 8\nphase p 0 1 NaN\n",
		"noctrace v1\nprocs 2\nmsg 0 0 1 -0 0x1p-2 8\nmsg 1 1 0 1e3 1_000 8\n",
		"noctrace v1\nprocs 2\nmsg 0 0 1 0 1 8\nmsg 1 1 0 0 1 8\nmsg 2 1 0 2 3 8\nmsg 3 0 1 2 1e9 8\n",
		"noctrace v1\nprocs 3\nphase - 0 1 0\nphase - 0 1 0\nphase b 0 1 0\n",
		"noctrace v1\nprocs 2\nmsg 0 0 1 0 1 8\nphase a 0 1 0 0 0 0\nphase a 0 1 0 +0\n",
		"noctrace v1\nprocs 2\nmsg 0 0 1 0 1 8 9\n",
		"",
		"\n\n  \n",
		"noctrace v1\nprocs 1\nname " + long + "\nprocs 2\n",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Decode(bytes.NewReader(data))
		want, werr := decodeReference(bytes.NewReader(data))
		if (err == nil) != (werr == nil) || (err != nil && err.Error() != werr.Error()) {
			t.Fatalf("Decode error %v, reference error %v", err, werr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Decode built\n%+v\nreference built\n%+v", got, want)
		}
	})
}

// TestDecodeLineCap pins Decode to the reference at the 1 MiB line cap: a
// line of maxLine bytes is accepted whether it ends in "\n", "\r\n", or
// the end of input, one byte more is bufio.ErrTooLong, and an error on an
// earlier line still wins over the cap.
func TestDecodeLineCap(t *testing.T) {
	name := func(n int) string { return "name " + strings.Repeat("x", n-len("name ")) }
	cases := map[string]string{
		"at cap, LF":          "noctrace v1\n" + name(maxLine) + "\nprocs 1\n",
		"at cap, CRLF":        "noctrace v1\n" + name(maxLine-1) + "\r\nprocs 1\n",
		"at cap, CR counts":   "noctrace v1\n" + name(maxLine) + "\r\nprocs 1\n",
		"at cap, EOF":         "noctrace v1\nprocs 1\n" + name(maxLine),
		"over cap, LF":        "noctrace v1\n" + name(maxLine+1) + "\nprocs 1\n",
		"over cap, EOF":       "noctrace v1\nprocs 1\n" + name(maxLine+1),
		"earlier error first": "noctrace v1\nprocs x\n" + name(maxLine+1) + "\n",
	}
	for label, in := range cases {
		got, err := Decode(strings.NewReader(in))
		want, werr := decodeReference(strings.NewReader(in))
		if (err == nil) != (werr == nil) || (err != nil && err.Error() != werr.Error()) {
			t.Errorf("%s: Decode error %v, reference error %v", label, err, werr)
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Decode and reference built different patterns", label)
		}
	}
	if _, err := Decode(strings.NewReader(cases["over cap, LF"])); err != bufio.ErrTooLong {
		t.Errorf("over-cap line: error %v, want bufio.ErrTooLong", err)
	}
}
