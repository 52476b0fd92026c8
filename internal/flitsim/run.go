package flitsim

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/routing"
	"repro/internal/topology"
)

// Run simulates the pattern on the network with the given router.
func Run(pat *model.Pattern, net *topology.Network, router Router, cfg Config) (Result, error) {
	return run(pat, net, router, cfg, simulate)
}

// run validates the inputs, normalizes cfg, builds the fabric, and hands it
// to the simulation core sim inside the flitsim.run span. Run passes the
// event-driven core; the equivalence tests pass the cycle-stepping
// reference through the same path.
func run(pat *model.Pattern, net *topology.Network, router Router, cfg Config,
	sim func(*model.Pattern, Router, *fabric) (Result, error)) (Result, error) {
	if err := pat.Validate(); err != nil {
		return Result{}, fmt.Errorf("flitsim: %v", err)
	}
	if err := net.Validate(); err != nil {
		return Result{}, fmt.Errorf("flitsim: %v", err)
	}
	if pat.Procs != net.Procs {
		return Result{}, fmt.Errorf("flitsim: pattern has %d procs, network %d", pat.Procs, net.Procs)
	}
	cfg = cfg.Normalized()
	sp := obs.Span(cfg.Obs, "flitsim.run")
	defer sp.End()
	fb := buildFabric(net, cfg)
	return sim(pat, router, fb)
}

// RunMesh simulates the pattern on a mesh with dimension-order routing.
func RunMesh(pat *model.Pattern, cfg Config) (Result, error) {
	rows, cols := topology.GridDims(pat.Procs)
	net, grid := topology.Mesh(rows, cols)
	return Run(pat, net, DOR{Grid: grid}, cfg)
}

// RunTorus simulates the pattern on a torus with true fully adaptive
// minimal routing.
func RunTorus(pat *model.Pattern, cfg Config) (Result, error) {
	rows, cols := topology.GridDims(pat.Procs)
	net, grid := topology.Torus(rows, cols)
	return Run(pat, net, TFAR{Grid: grid}, cfg)
}

// RunRing simulates the pattern on a bidirectional ring — the conventional
// home of collective workloads — with true fully adaptive minimal routing
// (the 1×N degenerate case of the torus router).
func RunRing(pat *model.Pattern, cfg Config) (Result, error) {
	net, grid := topology.Ring(pat.Procs)
	return Run(pat, net, TFAR{Grid: grid}, cfg)
}

// RunCrossbar simulates the pattern on the ideal non-blocking crossbar.
func RunCrossbar(pat *model.Pattern, cfg Config) (Result, error) {
	net := topology.Crossbar(pat.Procs)
	return Run(pat, net, XBar{}, cfg)
}

// RunHier replays a flattened two-level (chiplet) design: the composite
// network and hierarchical source routes produced by package hier, where
// switch IDs at or past noiStart form the inter-chiplet (NoI) block. Links
// inside a chiplet cost one cycle; links with an endpoint in the NoI block
// — NoI internal links and the gateway pipes that cross the chiplet
// boundary — cost noiDelay cycles, modeling the longer inter-chiplet wires.
// A caller-supplied cfg.LinkDelay wins over this two-class model.
func RunHier(pat *model.Pattern, net *topology.Network, table *routing.Table, noiStart topology.SwitchID, noiDelay int, cfg Config) (Result, error) {
	if cfg.LinkDelay == nil {
		if noiDelay < 1 {
			noiDelay = 1
		}
		cfg.LinkDelay = func(a, b topology.SwitchID) int {
			if a >= noiStart || b >= noiStart {
				return noiDelay
			}
			return 1
		}
	}
	return RunGenerated(pat, net, table, cfg)
}

// RunGenerated simulates the pattern on a synthesized network using its
// source-routing table. Flows present in the pattern but missing from the
// table (e.g. when running a different application on the network, as in the
// paper's sensitivity study) are routed by shortest path.
func RunGenerated(pat *model.Pattern, net *topology.Network, table *routing.Table, cfg Config) (Result, error) {
	var missing []model.Flow
	for _, f := range pat.Flows() {
		if _, ok := table.Routes[f]; !ok {
			missing = append(missing, f)
		}
	}
	if len(missing) == 0 {
		return Run(pat, net, SourceRouted{Table: table}, cfg)
	}
	bfs, err := NewBFSRouted(net, missing)
	if err != nil {
		return Result{}, err
	}
	merged := routing.NewTable(net)
	for f, r := range table.Routes {
		merged.Routes[f] = r
	}
	for f, r := range bfs.Table.Routes {
		merged.Routes[f] = r
	}
	return Run(pat, net, SourceRouted{Table: merged}, cfg)
}
