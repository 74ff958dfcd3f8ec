package costmodel

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"dnnparallel/internal/compute"
	"dnnparallel/internal/grid"
	"dnnparallel/internal/machine"
	"dnnparallel/internal/nn"
	"dnnparallel/internal/stage"
	"dnnparallel/internal/timeline"
)

// Regression for the dead firstModel flag removed from FullIntegrated:
// only the network's very first weighted layer skips the ∆X all-reduce.
// When the leading conv layers run Domain, the first *Model* layer (fc6)
// is not the first weighted layer, so it must still pay ActReduce — its
// ∆X has to propagate back into the domain-parallel stack below it.
func TestFirstModelLayerAfterDomainPaysActReduce(t *testing.T) {
	net := nn.AlexNet()
	g := grid.Grid{Pr: 8, Pc: 64}
	assign := ConvAssignment(net, Domain, Model)
	b := onFlat(knl()).FullIntegrated(net, 512, g, assign)

	widx := net.WeightedLayers()
	sawModel := false
	for _, lc := range b.Layers {
		switch lc.Strategy {
		case Domain:
			if lc.ActReduce.Total() != 0 {
				t.Fatalf("domain layer %s must not carry a ∆X all-reduce", lc.Name)
			}
		case Model:
			if !sawModel {
				sawModel = true
				if lc.Index == widx[0] {
					t.Fatal("test setup broken: first weighted layer ended up Model")
				}
				if lc.ActReduce.Total() == 0 {
					t.Fatalf("first Model layer %s (not the first weighted layer) must pay ActReduce", lc.Name)
				}
			}
		}
	}
	if !sawModel {
		t.Fatal("test setup broken: no Model layer found")
	}

	// And the genuine first weighted layer, when Model, still skips it.
	uniform := onFlat(knl()).FullIntegrated(net, 512, g, UniformAssignment(net, Model))
	if uniform.Layers[0].ActReduce.Total() != 0 {
		t.Fatal("the network's first weighted layer must never pay a ∆X all-reduce")
	}
	for _, lc := range uniform.Layers[1:] {
		if lc.ActReduce.Total() == 0 {
			t.Fatalf("layer %s should pay ActReduce under the uniform Model assignment", lc.Name)
		}
	}
}

// EpochIterations/EpochSeconds must fail loudly instead of dividing by
// zero (or silently mis-rounding a negative batch).
func TestEpochPanicsOnBadInputs(t *testing.T) {
	cases := map[string]func(){
		"zero batch":        func() { EpochIterations(1000, 0) },
		"negative batch":    func() { EpochIterations(1000, -8) },
		"seconds zero b":    func() { EpochSeconds(0.5, 1000, 0) },
		"negative dataset":  func() { EpochIterations(-1, 64) },
		"seconds negativeN": func() { EpochSeconds(0.5, -10, 64) },
	}
	for name, f := range cases {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			f()
		})
	}
	// Valid inputs keep working.
	if EpochIterations(0, 64) != 0 {
		t.Fatal("empty dataset should take zero iterations")
	}
}

// A uniform two-level topology must reproduce every flat breakdown to
// the last bit, whatever placement or ranks-per-node it claims —
// property-tested over random grids, batch sizes, and assignments.
func TestEnvFlatEquivalenceProperty(t *testing.T) {
	net := nn.AlexNet()
	m := knl()
	rng := rand.New(rand.NewSource(42))
	strategies := []Strategy{Model, Domain, BatchOnly}
	for trial := 0; trial < 50; trial++ {
		p := 1 << (1 + rng.Intn(10)) // 2 … 1024
		grids := grid.Factorizations(p)
		g := grids[rng.Intn(len(grids))]
		B := g.Pc * (1 + rng.Intn(8))
		// Uniform topology with arbitrary node size and placement.
		topo := machine.TwoLevel(m.Name, machine.Link{Alpha: m.Alpha, Beta: m.Beta},
			machine.Link{Alpha: m.Alpha, Beta: m.Beta}, 1+rng.Intn(8), m.PeakFlops)
		env := Env{Topo: topo, Placement: grid.Placements()[rng.Intn(2)]}

		assign := make(Assignment)
		for _, li := range net.WeightedLayers() {
			assign[li] = strategies[rng.Intn(len(strategies))]
		}

		pairs := []struct {
			name       string
			flat, topo *Breakdown
		}{
			{"FullIntegrated", onFlat(m).FullIntegrated(net, B, g, assign), env.FullIntegrated(net, B, g, assign)},
		}
		for _, pair := range pairs {
			if len(pair.flat.Layers) != len(pair.topo.Layers) {
				t.Fatalf("%s: layer count mismatch", pair.name)
			}
			for i := range pair.flat.Layers {
				if pair.flat.Layers[i] != pair.topo.Layers[i] {
					t.Fatalf("%s (grid %v, B=%d, ppn=%d, %v): layer %d differs:\nflat %+v\ntopo %+v",
						pair.name, g, B, topo.RanksPerNode(), env.Placement, i,
						pair.flat.Layers[i], pair.topo.Layers[i])
				}
			}
		}
	}
}

// On a genuinely two-level machine the placement matters: with AlexNet's
// FC layers model-parallel on an aligned grid, the activation collectives
// travel the column groups — packing those onto nodes (ColMajor) must
// price the model terms cheaper than scattering them (RowMajor).
func TestPlacementChangesModelCosts(t *testing.T) {
	net := nn.AlexNet()
	topo := machine.CoriKNLNodes(4)
	g := grid.Grid{Pr: 4, Pc: 16}
	B := 512
	assign := UniformAssignment(net, Model)

	col := Env{Topo: topo, Placement: grid.ColMajor}.FullIntegrated(net, B, g, assign)
	row := Env{Topo: topo, Placement: grid.RowMajor}.FullIntegrated(net, B, g, assign)

	var colAG, rowAG float64
	for i := range col.Layers {
		colAG += col.Layers[i].AllGather.Total() + col.Layers[i].ActReduce.Total()
		rowAG += row.Layers[i].AllGather.Total() + row.Layers[i].ActReduce.Total()
	}
	if colAG >= rowAG {
		t.Fatalf("ColMajor activation collectives (%g) should beat RowMajor (%g) — 4-high columns fit a node", colAG, rowAG)
	}

	// Every leveled cost must sum its attribution to the total.
	for _, bd := range []*Breakdown{col, row} {
		for _, lc := range bd.Layers {
			for _, c := range []struct {
				name string
				cost float64
				in   float64
			}{
				{"AllGather", lc.AllGather.Total(), lc.AllGather.LevelSum()},
				{"ActReduce", lc.ActReduce.Total(), lc.ActReduce.LevelSum()},
				{"GradReduce", lc.GradReduce.Total(), lc.GradReduce.LevelSum()},
			} {
				if c.cost > 0 && math.Abs(c.in-c.cost) > 1e-12*c.cost {
					t.Fatalf("%s %s: level attribution %g != total %g", lc.Name, c.name, c.in, c.cost)
				}
			}
		}
	}
}

// A 10× slower inter-node link must make the all-on-one-node grid
// pricing strictly cheaper than the flat machine predicts, and the
// scattered pricing no cheaper.
func TestTwoLevelBracketsFlat(t *testing.T) {
	net := nn.AlexNet()
	topo := machine.CoriKNLNodes(8)
	flat := topo.Machine() // inter-level view = the Table 1 constants
	g := grid.Grid{Pr: 8, Pc: 8}
	B := 512

	flatBD := onFlat(flat).FullIntegrated(net, B, g, nil)
	colPacked := Env{Topo: topo, Placement: grid.ColMajor}.FullIntegrated(net, B, g, nil)
	if colPacked.TotalSeconds() >= flatBD.TotalSeconds() {
		t.Fatalf("packing the heavy groups on-node (%g) must beat the flat Aries-only model (%g)",
			colPacked.TotalSeconds(), flatBD.TotalSeconds())
	}
}

// Binding a grid changes only how often its spans are classified, never
// a price: on aligned and misaligned two- and three-level hierarchies,
// every grid, placement and assignment prices bit-identically bound and
// unbound — the breakdown, the Eq. 6 redistribution, the ∆W floor, and
// multi-stage iterations whose first stage reuses the bound pricer.
func TestBindPricesIdentically(t *testing.T) {
	net := nn.AlexNet()
	cm := compute.KNLCaffe()
	widx := net.WeightedLayers()
	link := func(alpha, gbs float64) machine.Link {
		return machine.Link{Alpha: alpha, Beta: machine.WordBytes / (gbs * 1e9)}
	}
	topos := []machine.Topology{
		machine.CoriKNLNodes(16),
		machine.CoriKNLNodes(6),
		{Name: "6-24", PeakFlops: knl().PeakFlops, Levels: []machine.Level{
			{Name: "node", Link: link(5e-7, 60), GroupSize: 6},
			{Name: "rack", Link: link(1e-6, 12), GroupSize: 24},
			{Name: "spine", Link: link(2e-6, 6)},
		}},
	}
	assigns := []Assignment{nil, ConvAssignment(net, Domain, Model), ConvAssignment(net, BatchOnly, Model)}
	for _, topo := range topos {
		for _, g := range grid.Factorizations(20) {
			for _, pl := range grid.Placements() {
				env := Env{Topo: topo, Placement: pl}
				bound := env.Bind(g)
				for _, a := range assigns {
					if got, want := bound.FullIntegrated(net, 1440, g, a), env.FullIntegrated(net, 1440, g, a); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s %v %v: bound FullIntegrated differs", topo.Name, g, pl)
					}
					if got, want := bound.RedistributionSeconds(net, 1440, g, a), env.RedistributionSeconds(net, 1440, g, a); got != want {
						t.Fatalf("%s %v %v: bound redistribution %g, unbound %g", topo.Name, g, pl, got, want)
					}
					for _, S := range []int{2, 4} {
						grids := make([]grid.Grid, S)
						for k := range grids {
							grids[k] = g
						}
						part := stage.Balanced(len(widx), S)
						sched := timeline.Schedule{Shape: timeline.OneFOneB, MicroBatches: 4, Stages: S}
						got, err := bound.StageIteration(net, 1440, part, grids, a, cm, timeline.PolicyBackprop, sched)
						if err != nil {
							t.Fatal(err)
						}
						want, err := env.StageIteration(net, 1440, part, grids, a, cm, timeline.PolicyBackprop, sched)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s %v %v S=%d: bound StageIteration differs", topo.Name, g, pl, S)
						}
					}
				}
				if got, want := bound.FCGradReduceSeconds(net, g), env.FCGradReduceSeconds(net, g); got != want {
					t.Fatalf("%s %v %v: bound ∆W floor %g, unbound %g", topo.Name, g, pl, got, want)
				}
				// The bound pricer serves g at offset 0 only and
				// classifies exactly as a fresh build there.
				if got, want := bound.pricerAt(g, 0), env.pricerAt(g, 0); got != bound.bound ||
					!reflect.DeepEqual([]any{got.col, got.row, got.all, got.haloLevel}, []any{want.col, want.row, want.all, want.haloLevel}) {
					t.Fatalf("%s %v %v: bound pricer not reused at offset 0, or classifies differently", topo.Name, g, pl)
				}
				if bound.pricerAt(g, 1) == bound.bound {
					t.Fatalf("%s %v %v: bound pricer reused at offset 1", topo.Name, g, pl)
				}
			}
		}
	}
}
