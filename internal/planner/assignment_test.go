package planner

import (
	"reflect"
	"testing"

	"dnnparallel/internal/costmodel"
	"dnnparallel/internal/grid"
	"dnnparallel/internal/machine"
	"dnnparallel/internal/nn"
)

// autoAssignmentOracle is the whole-network construction of the Auto
// assignment: three uniform-assignment breakdowns price every (layer,
// strategy) pair, and each conv layer takes the cheapest eligible one.
func autoAssignmentOracle(net *nn.Network, B int, g grid.Grid, env costmodel.Env) costmodel.Assignment {
	var perStrategy [3]*costmodel.Breakdown
	perStrategy[costmodel.Model] = env.FullIntegrated(net, B, g, nil)
	for _, s := range []costmodel.Strategy{costmodel.Domain, costmodel.BatchOnly} {
		perStrategy[s] = env.FullIntegrated(net, B, g, costmodel.UniformAssignment(net, s))
	}
	a := make(costmodel.Assignment)
	for k, li := range net.WeightedLayers() {
		l := &net.Layers[li]
		if l.Kind != nn.Conv {
			a[li] = costmodel.Model
			continue
		}
		cost := func(s costmodel.Strategy) float64 { return perStrategy[s].Layers[k].TotalSeconds() }
		best, bestCost := costmodel.Model, cost(costmodel.Model)
		if g.Pr <= l.In.H {
			if c := cost(costmodel.Domain); c < bestCost {
				best, bestCost = costmodel.Domain, c
			}
		}
		if g.P() <= B {
			if c := cost(costmodel.BatchOnly); c < bestCost {
				best = costmodel.BatchOnly
			}
		}
		a[li] = best
	}
	return a
}

// Pricing each conv layer's eligible strategies alone picks exactly the
// assignment the three whole-network breakdowns pick, on every preset
// network, every grid of P ∈ {64, 512, 4096}, flat, two- and three-level
// topologies under both placements, at B and at the micro-batch sizes
// B/M the pipelined search assigns at.
func TestAutoAssignmentMatchesOracle(t *testing.T) {
	topos := []machine.Topology{machine.Flat(machine.CoriKNL()), machine.CoriKNLNodes(16), rackTaper()}
	const B = 2048
	for _, name := range nn.PresetNames() {
		net, err := nn.Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, P := range []int{64, 512, 4096} {
			for _, g := range grid.Factorizations(P) {
				for _, topo := range topos {
					for _, pl := range grid.Placements() {
						env := costmodel.Env{Topo: topo, Placement: pl}.Bind(g)
						for _, M := range []int{1, 2, 8} {
							got := autoAssignment(net, B/M, g, env)
							want := autoAssignmentOracle(net, B/M, g, env)
							if !reflect.DeepEqual(got, want) {
								t.Fatalf("%s %v %s %v B=%d: assignment %v, oracle %v",
									name, g, topo.Name, pl, B/M, got, want)
							}
						}
					}
				}
			}
		}
	}
}
