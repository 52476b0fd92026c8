package trace

import (
	"encoding/binary"
	"io"
	"math"

	"repro/internal/model"
)

// WriteCanonical writes the binary canonical encoding of p: the fields
// Encode renders as noctrace v1 text, normalised the same way, in a fixed
// binary form that is unambiguous by construction.
//
//	pattern = text(name) int(procs) uint(#msgs) msg* uint(#phases) phase*
//	msg     = int(id) int(src) int(dst) float(start) float(finish) int(bytes)
//	phase   = text(label) float(start) float(finish) float(computeAfter)
//	          uint(#refs) int(ref)*
//
// uint is an unsigned varint, int a zig-zag varint, float the IEEE-754 bits
// in little-endian order, and text a uint byte length followed by the bytes
// with every ' ' mapped to '_'. An empty label is written as "-", as Encode
// writes it. Every NaN is written as one bit pattern (Encode prints them all
// as "NaN"), while -0 keeps its sign bit (Encode prints "-0").
//
// Because every string and list carries its length up front, the encoding
// parses back unambiguously, and two patterns get the same bytes exactly
// when they get the same Encode text (for names and labels free of white
// space other than ' ', which covers every decoded pattern). It exists to be
// hashed: it costs one buffer and no float formatting, where Encode renders
// every time with %g. The output goes to w in chunks through one reused
// buffer.
func WriteCanonical(w io.Writer, p *model.Pattern) error {
	c := canonWriter{w: w, buf: make([]byte, 0, 8<<10)}
	c.text(p.Name)
	c.int(p.Procs)
	c.uint(len(p.Messages))
	for _, m := range p.Messages {
		c.int(m.ID)
		c.int(m.Src)
		c.int(m.Dst)
		c.float(m.Start)
		c.float(m.Finish)
		c.int(m.Bytes)
	}
	c.uint(len(p.Phases))
	for _, ph := range p.Phases {
		label := ph.Label
		if label == "" {
			label = "-"
		}
		c.text(label)
		c.float(ph.Start)
		c.float(ph.Finish)
		c.float(ph.ComputeAfter)
		c.uint(len(ph.Messages))
		for _, mi := range ph.Messages {
			c.int(mi)
		}
	}
	c.flush()
	return c.err
}

// canonNaN is the one bit pattern every NaN is written as.
var canonNaN = math.Float64bits(math.NaN())

// canonWriter appends encoded values to buf and hands buf to w whenever the
// next value might not fit. After a write error it keeps encoding into the
// buffer but writes nothing more; WriteCanonical reports the first error.
type canonWriter struct {
	w   io.Writer
	buf []byte
	err error
}

// reserve flushes unless n more bytes fit in the buffer.
func (c *canonWriter) reserve(n int) {
	if len(c.buf)+n > cap(c.buf) {
		c.flush()
	}
}

func (c *canonWriter) flush() {
	if c.err == nil && len(c.buf) > 0 {
		_, c.err = c.w.Write(c.buf)
	}
	c.buf = c.buf[:0]
}

func (c *canonWriter) uint(v int) {
	c.reserve(binary.MaxVarintLen64)
	c.buf = binary.AppendUvarint(c.buf, uint64(v))
}

func (c *canonWriter) int(v int) {
	c.reserve(binary.MaxVarintLen64)
	c.buf = binary.AppendVarint(c.buf, int64(v))
}

func (c *canonWriter) float(f float64) {
	bits := math.Float64bits(f)
	if f != f {
		bits = canonNaN
	}
	c.reserve(8)
	c.buf = binary.LittleEndian.AppendUint64(c.buf, bits)
}

// text writes s length-first with ' ' mapped to '_', in buffer-sized pieces
// so a long string never grows the buffer.
func (c *canonWriter) text(s string) {
	c.uint(len(s))
	for len(s) > 0 {
		if len(c.buf) == cap(c.buf) {
			c.flush()
		}
		n := min(len(s), cap(c.buf)-len(c.buf))
		for i := 0; i < n; i++ {
			b := s[i]
			if b == ' ' {
				b = '_'
			}
			c.buf = append(c.buf, b)
		}
		s = s[n:]
	}
}
