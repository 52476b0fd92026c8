package main

import (
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer's public function, recorded by the
// benchmark around the call. Times are nanoseconds since the run began.
type span struct {
	Op     int64  `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for an operation's root span
	Name   string `json:"name"`
	Label  string `json:"label,omitempty"` // the offline pattern, hit class or sweep request
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps one client's spans in memory until the run ends. A nil
// tracer records nothing, which is the untraced mode: begin and end are
// then two nil checks.
type tracer struct {
	t0    time.Time
	label string
	spans []span
}

func newTracer(t0 time.Time) *tracer { return &tracer{t0: t0} }

// begin opens a span under parent (-1 for a root) and returns its index.
func (t *tracer) begin(op int64, parent int, name string) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Op: op, ID: len(t.spans), Parent: parent, Name: name, Label: t.label, Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

// setLabel tags the spans begun from now on: with the offline pattern,
// which selects the per-pattern metrics, or with "class=" or "req=" and the
// serve request's class or name, for reading the span file.
func (t *tracer) setLabel(l string) {
	if t != nil {
		t.label = l
	}
}

func (t *tracer) end(id int) time.Duration {
	if t == nil || id < 0 {
		return 0
	}
	t.spans[id].End = int64(time.Since(t.t0))
	return t.spans[id].dur()
}

// record adds an already-measured span of length d, starting at offset
// after its parent's start, and returns its index. It places stages the
// benchmark replayed, or the server timed itself, inside the round trip
// that ran them.
func (t *tracer) record(op int64, parent int, name string, offset, d time.Duration) int {
	if t == nil {
		return -1
	}
	start := t.spans[parent].Start + int64(offset)
	t.spans = append(t.spans, span{Op: op, ID: len(t.spans), Parent: parent, Name: name, Label: t.label, Start: start, End: start + int64(d)})
	return len(t.spans) - 1
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of it that its children cover. Spans carry
// per-tracer IDs, so each tracer's list is processed on its own.
func selfTimes(lists [][]span) map[string]time.Duration {
	out := make(map[string]time.Duration)
	for _, spans := range lists {
		kids := make(map[int][]span)
		for _, s := range spans {
			if s.Parent >= 0 {
				kids[s.Parent] = append(kids[s.Parent], s)
			}
		}
		for _, s := range spans {
			out[s.Name] += s.dur() - covered(s, kids[s.ID])
		}
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent.
func covered(p span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, p.Start), min(k.End, p.End)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	first := true
	for _, x := range iv {
		switch {
		case first:
			curA, curB, first = x[0], x[1], false
		case x[0] > curB:
			total += curB - curA
			curA, curB = x[0], x[1]
		case x[1] > curB:
			curB = x[1]
		}
	}
	if !first {
		total += curB - curA
	}
	return time.Duration(total)
}

// layerOf maps a span name to its layer: the text before the first dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}
