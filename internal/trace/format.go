package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"repro/internal/model"
)

// The noctrace v1 text format is line-oriented:
//
//	# comments and blank lines are ignored
//	noctrace v1
//	name <string>
//	procs <n>
//	msg <id> <src> <dst> <start> <finish> <bytes>
//	phase <label> <start> <finish> <computeAfter> <msgID>...
//
// Message lines must precede phase lines that reference them.

// Encode writes the pattern in noctrace v1 format.
func Encode(w io.Writer, p *model.Pattern) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "noctrace v1")
	if p.Name != "" {
		fmt.Fprintf(bw, "name %s\n", strings.ReplaceAll(p.Name, " ", "_"))
	}
	fmt.Fprintf(bw, "procs %d\n", p.Procs)
	for _, m := range p.Messages {
		fmt.Fprintf(bw, "msg %d %d %d %g %g %d\n", m.ID, m.Src, m.Dst, m.Start, m.Finish, m.Bytes)
	}
	for _, ph := range p.Phases {
		label := ph.Label
		if label == "" {
			label = "-"
		}
		fmt.Fprintf(bw, "phase %s %g %g %g", strings.ReplaceAll(label, " ", "_"), ph.Start, ph.Finish, ph.ComputeAfter)
		for _, mi := range ph.Messages {
			fmt.Fprintf(bw, " %d", mi)
		}
		fmt.Fprintln(bw)
	}
	return bw.Flush()
}

// maxLine is the longest line Decode accepts, in bytes without its '\n' (a
// trailing '\r' counts). It is the 1 MiB token cap of the bufio.Scanner the
// decoder was first built on, kept so the accepted language did not change;
// a longer line fails with that scanner's error, bufio.ErrTooLong.
const maxLine = 1<<20 - 1

// minMsgLine is the length of the shortest valid message line with its
// newline, "msg 0 0 1 0 1 8\n".
const minMsgLine = len("msg 0 0 1 0 1 8\n")

// Decode parses a noctrace v1 stream and validates the result.
//
// Lines end at '\n'. Fields are separated by runs of Unicode white space,
// exactly as strings.Fields splits them, so the '\r' of a CRLF ending is
// just trailing space; a line whose first field starts with '#' is a
// comment. Decode reads the whole input once (sized up front when r has a
// Len method) and parses it in a single pass over substrings of that one
// copy: allocations grow with the number of phase labels, not with the
// number of lines or fields.
func Decode(r io.Reader) (*model.Pattern, error) {
	src, readErr := readAll(r)
	p := &model.Pattern{}
	// A message line takes at least minMsgLine bytes, which bounds the
	// pre-sizing by the input length whatever the count finds.
	if n := min(strings.Count(src, "\nmsg "), len(src)/minMsgLine); n > 0 {
		p.Messages = make([]model.Message, 0, n)
	}
	var (
		fields    = make([]string, 0, 16)
		refs      []int  // shared backing for the phases' message references
		lastLabel string // the previous phase label, reused rather than copied again
		// The messages of one phase share their start and finish text, so
		// each is parsed once per run of repeats.
		startMemo, finishMemo floatMemo
		lineno                int
		sawHeader             bool
	)
	for rest := src; rest != ""; {
		line := rest
		if i := strings.IndexByte(rest, '\n'); i >= 0 {
			line, rest = rest[:i], rest[i+1:]
		} else {
			rest = ""
		}
		if len(line) > maxLine {
			return nil, bufio.ErrTooLong
		}
		lineno++
		fields = appendFields(fields[:0], line)
		if len(fields) == 0 || fields[0][0] == '#' {
			continue
		}
		if !sawHeader {
			if len(fields) != 2 || fields[0] != "noctrace" || fields[1] != "v1" {
				return nil, fmt.Errorf("line %d: expected header \"noctrace v1\", got %q", lineno, strings.TrimSpace(line))
			}
			sawHeader = true
			continue
		}
		switch fields[0] {
		case "name":
			if len(fields) != 2 {
				return nil, fmt.Errorf("line %d: name takes one argument", lineno)
			}
			// Clone so the pattern does not pin the whole input.
			p.Name = strings.Clone(fields[1])
		case "procs":
			if len(fields) != 2 {
				return nil, fmt.Errorf("line %d: procs takes one argument", lineno)
			}
			n, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fmt.Errorf("line %d: bad proc count %q: %v", lineno, fields[1], err)
			}
			p.Procs = n
		case "msg":
			if len(fields) != 7 {
				return nil, fmt.Errorf("line %d: msg takes 6 arguments, got %d", lineno, len(fields)-1)
			}
			var m model.Message
			var err error
			if m.ID, err = strconv.Atoi(fields[1]); err != nil {
				return nil, fmt.Errorf("line %d: bad msg id: %v", lineno, err)
			}
			if m.Src, err = strconv.Atoi(fields[2]); err != nil {
				return nil, fmt.Errorf("line %d: bad src: %v", lineno, err)
			}
			if m.Dst, err = strconv.Atoi(fields[3]); err != nil {
				return nil, fmt.Errorf("line %d: bad dst: %v", lineno, err)
			}
			if m.Start, err = startMemo.parse(fields[4]); err != nil {
				return nil, fmt.Errorf("line %d: bad start: %v", lineno, err)
			}
			if m.Finish, err = finishMemo.parse(fields[5]); err != nil {
				return nil, fmt.Errorf("line %d: bad finish: %v", lineno, err)
			}
			if m.Bytes, err = strconv.Atoi(fields[6]); err != nil {
				return nil, fmt.Errorf("line %d: bad bytes: %v", lineno, err)
			}
			p.Messages = append(p.Messages, m)
		case "phase":
			if len(fields) < 5 {
				return nil, fmt.Errorf("line %d: phase takes at least 4 arguments", lineno)
			}
			var ph model.Phase
			switch label := fields[1]; label {
			case "-":
			case lastLabel:
				ph.Label = lastLabel
			default:
				lastLabel = strings.Clone(label)
				ph.Label = lastLabel
			}
			var err error
			if ph.Start, err = strconv.ParseFloat(fields[2], 64); err != nil {
				return nil, fmt.Errorf("line %d: bad phase start: %v", lineno, err)
			}
			if ph.Finish, err = strconv.ParseFloat(fields[3], 64); err != nil {
				return nil, fmt.Errorf("line %d: bad phase finish: %v", lineno, err)
			}
			if ph.ComputeAfter, err = strconv.ParseFloat(fields[4], 64); err != nil {
				return nil, fmt.Errorf("line %d: bad compute gap: %v", lineno, err)
			}
			if n := len(fields) - 5; n > 0 {
				// Carve the references out of a shared chunk, capped so an
				// append to one phase can never write into the next.
				if cap(refs)-len(refs) < n {
					refs = make([]int, 0, max(n, len(p.Messages)))
				}
				start := len(refs)
				for _, f := range fields[5:] {
					mi, err := strconv.Atoi(f)
					if err != nil {
						return nil, fmt.Errorf("line %d: bad message ref %q: %v", lineno, f, err)
					}
					refs = append(refs, mi)
				}
				ph.Messages = refs[start:len(refs):len(refs)]
			}
			p.Phases = append(p.Phases, ph)
		default:
			return nil, fmt.Errorf("line %d: unknown directive %q", lineno, fields[0])
		}
	}
	if readErr != nil {
		return nil, readErr
	}
	if !sawHeader {
		return nil, fmt.Errorf("empty input: missing noctrace header")
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// floatMemo remembers the last float it parsed by its exact text.
type floatMemo struct {
	text string
	v    float64
}

func (m *floatMemo) parse(s string) (float64, error) {
	if s == m.text && s != "" {
		return m.v, nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err == nil {
		m.text, m.v = s, v
	}
	return v, err
}

// readAll reads r to the end into one string, growing the buffer once up
// front when r reports its remaining length. What was read before an error
// is returned with it, so lines ahead of the failure still parse (and report
// their own errors first), as they did under bufio.Scanner.
func readAll(r io.Reader) (string, error) {
	var sb strings.Builder
	if l, ok := r.(interface{ Len() int }); ok && l.Len() > 0 {
		sb.Grow(l.Len())
	}
	_, err := io.Copy(&sb, r)
	return sb.String(), err
}

// byteClass sorts bytes for field splitting: 0 for an ASCII byte that
// belongs to a field, 1 for ASCII white space, 2 for a byte that starts or
// continues a multi-byte sequence and must be decoded.
var byteClass = func() (c [256]uint8) {
	for _, b := range "\t\n\v\f\r " {
		c[b] = 1
	}
	for b := utf8.RuneSelf; b < 256; b++ {
		c[b] = 2
	}
	return c
}()

// appendFields appends the white-space separated fields of line to dst,
// split exactly where strings.Fields splits them (at runs of unicode.IsSpace
// runes, with invalid UTF-8 as a one-byte non-space), as substrings of line.
// Plain ASCII takes a table lookup per byte.
func appendFields(dst []string, line string) []string {
	i, n := 0, len(line)
	for i < n {
		for i < n {
			if c := byteClass[line[i]]; c == 1 {
				i++
			} else if c == 0 {
				break
			} else if r, size := utf8.DecodeRuneInString(line[i:]); unicode.IsSpace(r) {
				i += size
			} else {
				break
			}
		}
		start := i
		for i < n {
			if c := byteClass[line[i]]; c == 0 {
				i++
			} else if c == 1 {
				break
			} else if r, size := utf8.DecodeRuneInString(line[i:]); !unicode.IsSpace(r) {
				i += size
			} else {
				break
			}
		}
		if i > start {
			dst = append(dst, line[start:i])
		}
	}
	return dst
}
