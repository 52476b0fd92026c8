package synth

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/model"
	"repro/internal/routing"
	"repro/internal/topology"
)

// designJSON is the serialized form of a synthesized design: the topology
// plus the source-routing table with per-hop link assignments, so a saved
// design can be re-simulated exactly as generated.
type designJSON struct {
	Name     string      `json:"name"`
	Procs    int         `json:"procs"`
	Switches [][]int     `json:"switches"`
	Pipes    []pipeJSON  `json:"pipes"`
	Routes   []routeJSON `json:"routes"`
}

type pipeJSON struct {
	A     int `json:"a"`
	B     int `json:"b"`
	Width int `json:"width"`
}

type routeJSON struct {
	Src      int   `json:"src"`
	Dst      int   `json:"dst"`
	Switches []int `json:"switches"`
	Links    []int `json:"links"`
}

// SaveDesign writes the generated network and its routing table as JSON.
func SaveDesign(w io.Writer, net *topology.Network, table *routing.Table) error {
	out := designJSON{Name: net.Name, Procs: net.Procs}
	for _, sw := range net.Switches {
		procs := sw.Procs
		if procs == nil {
			procs = []int{}
		}
		out.Switches = append(out.Switches, procs)
	}
	for _, p := range net.Pipes {
		out.Pipes = append(out.Pipes, pipeJSON{A: int(p.A), B: int(p.B), Width: p.Width})
	}
	flows := table.SortedFlows()
	for _, f := range flows {
		r := table.Routes[f]
		rj := routeJSON{Src: f.Src, Dst: f.Dst, Links: r.Links}
		if rj.Links == nil {
			rj.Links = []int{}
		}
		for _, s := range r.Switches {
			rj.Switches = append(rj.Switches, int(s))
		}
		out.Routes = append(out.Routes, rj)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// LoadDesign reads a design saved by SaveDesign, validating both the
// topology and every route. Malformed input of any shape is an error, never
// a panic.
func LoadDesign(r io.Reader) (*topology.Network, *routing.Table, error) {
	var in designJSON
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, nil, fmt.Errorf("synth: decoding design: %v", err)
	}
	if err := in.check(); err != nil {
		return nil, nil, err
	}
	net := topology.New(in.Name, in.Procs)
	for _, procs := range in.Switches {
		s := net.AddSwitch()
		for _, p := range procs {
			net.AttachProc(p, s)
		}
	}
	// Pipes sorted for a canonical in-memory order.
	sort.Slice(in.Pipes, func(i, j int) bool {
		if in.Pipes[i].A != in.Pipes[j].A {
			return in.Pipes[i].A < in.Pipes[j].A
		}
		return in.Pipes[i].B < in.Pipes[j].B
	})
	for _, p := range in.Pipes {
		net.SetPipe(topology.SwitchID(p.A), topology.SwitchID(p.B), p.Width)
	}
	if err := net.Validate(); err != nil {
		return nil, nil, err
	}
	table := routing.NewTable(net)
	for _, rj := range in.Routes {
		route := routing.Route{Links: rj.Links}
		for _, s := range rj.Switches {
			route.Switches = append(route.Switches, topology.SwitchID(s))
		}
		table.Routes[model.F(rj.Src, rj.Dst)] = route
	}
	if err := table.Validate(); err != nil {
		return nil, nil, err
	}
	return net, table, nil
}

// check validates the decoded fields that the topology and routing
// constructors index by, before anything is allocated from them: procs is
// positive and equals the processors listed across switches, each listed
// once and in range (so the Home allocation is bounded by the input size);
// pipes join two distinct existing switches with a positive width, each
// pair at most once; and route endpoints are processors. It canonicalizes
// pipe endpoints to A < B, the order SaveDesign writes.
func (in *designJSON) check() error {
	listed := 0
	for _, procs := range in.Switches {
		listed += len(procs)
	}
	if in.Procs <= 0 || in.Procs != listed {
		return fmt.Errorf("synth: design has %d procs but its switches list %d", in.Procs, listed)
	}
	attached := make([]bool, in.Procs)
	for _, procs := range in.Switches {
		for _, p := range procs {
			if p < 0 || p >= in.Procs {
				return fmt.Errorf("synth: design references processor %d of %d", p, in.Procs)
			}
			if attached[p] {
				return fmt.Errorf("synth: design attaches processor %d twice", p)
			}
			attached[p] = true
		}
	}
	nsw := len(in.Switches)
	pipes := make(map[[2]int]bool, len(in.Pipes))
	for i := range in.Pipes {
		p := &in.Pipes[i]
		if p.A == p.B || p.A < 0 || p.B < 0 || p.A >= nsw || p.B >= nsw {
			return fmt.Errorf("synth: design pipe (%d,%d) needs two distinct switches of %d", p.A, p.B, nsw)
		}
		if p.Width <= 0 {
			return fmt.Errorf("synth: design pipe (%d,%d) has width %d", p.A, p.B, p.Width)
		}
		if p.A > p.B {
			p.A, p.B = p.B, p.A
		}
		key := [2]int{p.A, p.B}
		if pipes[key] {
			return fmt.Errorf("synth: design lists pipe (%d,%d) twice", p.A, p.B)
		}
		pipes[key] = true
	}
	for _, rj := range in.Routes {
		if rj.Src < 0 || rj.Src >= in.Procs || rj.Dst < 0 || rj.Dst >= in.Procs {
			return fmt.Errorf("synth: design route %d->%d references a processor outside [0,%d)", rj.Src, rj.Dst, in.Procs)
		}
	}
	return nil
}
