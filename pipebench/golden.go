package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/flitsim"
	"repro/internal/floorplan"
	"repro/internal/synth"
)

// writeGolden synthesizes every pattern the full and tiny sizes check
// against golden.json, at server defaults, and writes their digests; the
// offline patterns also get their Figure 7 and Figure 8 ratios.
func writeGolden(path string) error {
	offline := make(map[string]bool)
	var refs []patRef
	for _, sz := range []sizes{fullSizes(), tinySizes()} {
		for _, r := range sz.offline {
			offline[r.String()] = true
			refs = append(refs, r)
		}
		for _, cl := range sz.hit {
			if !cl.get {
				refs = append(refs, cl.ref)
			}
		}
		for _, fams := range sz.sweep {
			for _, f := range fams {
				refs = append(refs, f.base)
			}
		}
	}
	g := make(map[string]goldenEntry)
	for _, r := range refs {
		name := r.String()
		if _, done := g[name]; done {
			continue
		}
		pat, err := r.generate(nil, 0, -1)
		if err != nil {
			return err
		}
		res, err := synth.Synthesize(pat, serverSynth)
		if err != nil {
			return err
		}
		var design bytes.Buffer
		if err := synth.SaveDesign(&design, res.Net, res.Table); err != nil {
			return err
		}
		e := goldenEntry{SHA256: digest(design.Bytes()), Links: res.Net.TotalLinks()}
		if offline[name] {
			plan, err := floorplan.Place(res.Net, floorplan.Options{Seed: serverSynth.Seed})
			if err != nil {
				return err
			}
			gen, err := flitsim.RunGenerated(pat, res.Net, res.Table, flitsim.Config{LinkDelay: plan.LinkDelay})
			if err != nil {
				return err
			}
			xbar, err := flitsim.RunCrossbar(pat, flitsim.Config{})
			if err != nil {
				return err
			}
			meshSw, meshLink := floorplan.MeshBaseline(pat.Procs)
			e.AreaVsMesh = float64(plan.SwitchArea+plan.TotalArea()) / float64(meshSw+meshLink)
			e.ExecVsCrossbar = float64(gen.ExecCycles) / float64(xbar.ExecCycles)
		}
		g[name] = e
		fmt.Fprintf(os.Stderr, "%s: %+v\n", name, e)
	}
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
