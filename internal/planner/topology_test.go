package planner

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dnnparallel/internal/grid"
	"dnnparallel/internal/machine"
	"dnnparallel/internal/nn"
	"dnnparallel/internal/timeline"
)

// A uniform two-level topology (machine.Flat with any ranks-per-node)
// must reproduce the flat planner bit for bit: same best grid, same
// per-grid numbers, for every mode and scoring path — property-tested
// over random (P, B, mode) draws. This is the flat-equivalence
// guarantee of the topology refactor.
func TestOptimizeFlatEquivalenceProperty(t *testing.T) {
	net := nn.AlexNet()
	rng := rand.New(rand.NewSource(9))
	modes := []Mode{Uniform, ConvBatch, ConvDomain, Auto}
	for trial := 0; trial < 12; trial++ {
		P := 1 << (2 + rng.Intn(8)) // 4 … 512
		B := P * (1 + rng.Intn(4))
		opts := DefaultOptions()
		opts.Mode = modes[rng.Intn(len(modes))]
		opts.DatasetN = 1200000
		switch trial % 3 {
		case 1:
			opts.Overlap = true
		case 2:
			opts.UseTimeline = true
			opts.TimelinePolicy = timeline.PolicyBackprop
		}

		flat, err := Optimize(net, B, P, opts)
		if err != nil {
			t.Fatalf("flat Optimize(P=%d,B=%d,%v): %v", P, B, opts.Mode, err)
		}

		topoOpts := opts
		link := machine.Link{Alpha: opts.Machine.Alpha, Beta: opts.Machine.Beta}
		topoOpts.Topology = machine.TwoLevel(opts.Machine.Name, link, link,
			1+rng.Intn(16), opts.Machine.PeakFlops)
		uni, err := Optimize(net, B, P, topoOpts)
		if err != nil {
			t.Fatalf("uniform-topology Optimize: %v", err)
		}

		if flat.Best.Grid != uni.Best.Grid {
			t.Fatalf("P=%d B=%d %v: best grid %v != %v under uniform topology",
				P, B, opts.Mode, flat.Best.Grid, uni.Best.Grid)
		}
		if len(flat.All) != len(uni.All) {
			t.Fatalf("plan count %d != %d", len(flat.All), len(uni.All))
		}
		for i := range flat.All {
			f, u := flat.All[i], uni.All[i]
			if f.Feasible != u.Feasible || f.Grid != u.Grid {
				t.Fatalf("plan %d: feasibility/grid mismatch", i)
			}
			if !f.Feasible {
				continue
			}
			for _, v := range []struct {
				name string
				a, b float64
			}{
				{"IterSeconds", f.IterSeconds, u.IterSeconds},
				{"CommSeconds", f.CommSeconds, u.CommSeconds},
				{"CompSeconds", f.CompSeconds, u.CompSeconds},
				{"ExposedCommSeconds", f.ExposedCommSeconds, u.ExposedCommSeconds},
				{"EpochSeconds", f.EpochSeconds, u.EpochSeconds},
				{"MemoryWords", f.MemoryWords, u.MemoryWords},
			} {
				if math.Abs(v.a-v.b) > 1e-12*math.Max(math.Abs(v.a), 1) {
					t.Fatalf("P=%d B=%d %v grid %v: %s %g != %g under uniform topology",
						P, B, opts.Mode, f.Grid, v.name, v.a, v.b)
				}
			}
		}
	}
}

// The acceptance demonstration: with inter-node β 10× the intra-node β
// (machine.CoriKNLNodes) and the per-node NIC serializing concurrent
// inter-node planes, the planner shifts the chosen Pr × Pc grid and
// placement on AlexNet relative to the flat Table 1 machine: at 16
// ranks/node the Pr = 16 column groups pack exactly onto one node under
// col-major placement, so the heavy all-gather/∆X collectives ride the
// fast intra link and never touch the congested NIC. The expected
// winners are pinned from the probe run so a regression in the
// placement-aware pricing shows up as a concrete grid change.
func TestTwoLevelTopologyShiftsChosenGrid(t *testing.T) {
	net := nn.AlexNet()
	opts := DefaultOptions()
	flat, err := Optimize(net, 2048, 512, opts)
	if err != nil {
		t.Fatal(err)
	}

	opts.Topology = machine.CoriKNLNodes(16)
	topo, err := Optimize(net, 2048, 512, opts)
	if err != nil {
		t.Fatal(err)
	}

	if flat.Best.Grid == topo.Best.Grid && topo.Best.Placement == grid.RowMajor {
		t.Fatalf("two-level topology changed nothing: still %v %v", topo.Best.Grid, topo.Best.Placement)
	}
	if got, want := flat.Best.Grid, (grid.Grid{Pr: 32, Pc: 16}); got != want {
		t.Fatalf("flat best grid = %v, want %v", got, want)
	}
	if got, want := topo.Best.Grid, (grid.Grid{Pr: 16, Pc: 32}); got != want {
		t.Fatalf("two-level best grid = %v, want %v (column groups sized to one node)", got, want)
	}
	if topo.Best.Placement != grid.ColMajor {
		t.Fatalf("two-level best placement = %v, want col-major (column groups on-node)", topo.Best.Placement)
	}
	// Packing the heavy collectives onto the fast link must beat the
	// all-Aries flat estimate.
	if topo.Best.IterSeconds >= flat.Best.IterSeconds {
		t.Fatalf("two-level best (%g) should undercut the flat best (%g)",
			topo.Best.IterSeconds, flat.Best.IterSeconds)
	}
}

// rackTaper is the three-level demo machine: Cori-KNL nodes (16 ranks,
// 60 GB/s) under racks of 128 ranks (12 GB/s uplink) behind a spine at
// 6 GB/s — a 10× bandwidth taper from node link to spine.
func rackTaper() machine.Topology {
	m := machine.CoriKNL()
	return machine.Topology{
		Name: "rack-taper",
		Levels: []machine.Level{
			{Name: "node", Link: machine.Link{Alpha: 5e-7, Beta: machine.WordBytes / 60e9}, GroupSize: 16},
			{Name: "rack", Link: machine.Link{Alpha: 1e-6, Beta: machine.WordBytes / 12e9}, GroupSize: 128},
			{Name: "spine", Link: machine.Link{Alpha: 2e-6, Beta: machine.WordBytes / 6e9}},
		},
		PeakFlops: m.PeakFlops,
	}
}

// The three-level acceptance demo: the rack-taper hierarchy shifts the
// best AlexNet grid and placement at P=512 away from the flat winner —
// the same qualitative shift the two-level demo showed — and the best
// plan carries a per-level cost attribution naming all three levels.
// The winners are pinned from the probe run so a regression in the
// recursive pricing shows up as a concrete grid change.
func TestThreeLevelTopologyShiftsChosenGrid(t *testing.T) {
	net := nn.AlexNet()
	opts := DefaultOptions()
	flat, err := Optimize(net, 2048, 512, opts)
	if err != nil {
		t.Fatal(err)
	}

	opts.Topology = rackTaper()
	topo, err := Optimize(net, 2048, 512, opts)
	if err != nil {
		t.Fatal(err)
	}

	if got, want := flat.Best.Grid, (grid.Grid{Pr: 32, Pc: 16}); got != want {
		t.Fatalf("flat best grid = %v, want %v", got, want)
	}
	if got, want := topo.Best.Grid, (grid.Grid{Pr: 16, Pc: 32}); got != want {
		t.Fatalf("three-level best grid = %v, want %v", got, want)
	}
	if topo.Best.Placement != grid.ColMajor {
		t.Fatalf("three-level best placement = %v, want col-major (column groups packed onto nodes)", topo.Best.Placement)
	}
	// The taper must actually price differently from the two-level Cori
	// machine: the rack level carries real cost, not a pass-through.
	two := opts
	two.Topology = machine.CoriKNLNodes(16)
	twoRes, err := Optimize(net, 2048, 512, two)
	if err != nil {
		t.Fatal(err)
	}
	if twoRes.Best.IterSeconds == topo.Best.IterSeconds {
		t.Fatal("three-level pricing is identical to two-level — the rack level priced nothing")
	}
	// Per-level attribution: all three levels named, and the level sums
	// reproduce the plan's total communication.
	bd := topo.Best.Breakdown
	if bd == nil {
		t.Fatal("best plan has no breakdown")
	}
	if got, want := fmt.Sprint(bd.LevelNames), "[node rack spine]"; got != want {
		t.Fatalf("breakdown level names = %s, want %s", got, want)
	}
	var levelSum float64
	for _, s := range bd.LevelSeconds() {
		if s < 0 {
			t.Fatalf("negative per-level attribution: %v", bd.LevelSeconds())
		}
		levelSum += s
	}
	if math.Abs(levelSum-topo.Best.CommSeconds) > 1e-12*math.Max(levelSum, 1) {
		t.Fatalf("per-level attribution sums to %g, plan comm is %g", levelSum, topo.Best.CommSeconds)
	}
}

// Constraining the placement search must be honored, and the reported
// placement must match what the plan was priced under.
func TestPlacementConstraint(t *testing.T) {
	net := nn.AlexNet()
	opts := DefaultOptions()
	opts.Topology = machine.CoriKNLNodes(16)
	g := grid.Grid{Pr: 16, Pc: 32}

	free := Evaluate(net, 2048, g, opts)
	if free.Placement != grid.ColMajor {
		t.Fatalf("unconstrained placement = %v, want col-major to win on this grid", free.Placement)
	}

	opts.Placements = []grid.Placement{grid.RowMajor}
	pinned := Evaluate(net, 2048, g, opts)
	if pinned.Placement != grid.RowMajor {
		t.Fatalf("pinned placement = %v, want row-major", pinned.Placement)
	}
	if pinned.IterSeconds <= free.IterSeconds {
		t.Fatalf("row-major (%g) should be slower than the free search's col-major (%g) here",
			pinned.IterSeconds, free.IterSeconds)
	}
}

// Timeline scoring on a two-level topology: the leveled breakdown flows
// through TimelineLayers into the two link lanes, and the two-lane
// schedule can only improve on pricing the same plan with a single lane
// (same total comm, more parallelism).
func TestTopologyTimelineScoring(t *testing.T) {
	net := nn.AlexNet()
	opts := DefaultOptions()
	opts.Topology = machine.CoriKNLNodes(8)
	opts.UseTimeline = true
	opts.TimelinePolicy = timeline.PolicyBackprop

	res, err := Optimize(net, 2048, 512, opts)
	if err != nil {
		t.Fatal(err)
	}
	best := res.Best
	if best.Timeline == nil {
		t.Fatal("timeline scoring must attach the schedule")
	}
	if best.IterSeconds < best.CompSeconds-1e-12 {
		t.Fatalf("iteration %g below compute bound %g", best.IterSeconds, best.CompSeconds)
	}
	// The schedule must actually use the split lanes.
	lanes := map[timeline.Resource]bool{}
	for _, s := range best.Timeline.Spans {
		lanes[s.Resource] = true
	}
	if lanes[timeline.Network] {
		t.Fatal("two-level plan scheduled communication on the flat Network lane")
	}
	if !lanes[timeline.NetworkLevel(0)] || !lanes[timeline.NetworkLevel(1)] {
		t.Fatalf("expected both link lanes in use, got %v", lanes)
	}
	// Serialized scoring (PolicyNone) must not beat the overlap policy.
	opts.TimelinePolicy = timeline.PolicyNone
	serial := evaluateAt(net, 2048, best.Grid, best.Placement, opts)
	if serial.IterSeconds < best.IterSeconds-1e-12 {
		t.Fatalf("PolicyNone (%g) cannot beat PolicyBackprop (%g) on the same plan",
			serial.IterSeconds, best.IterSeconds)
	}
}

// An invalid topology is rejected up front.
func TestOptimizeRejectsBadTopology(t *testing.T) {
	opts := DefaultOptions()
	opts.Topology = machine.CoriKNLNodes(8)
	opts.Topology.Levels[0].GroupSize = 0
	if _, err := Optimize(nn.AlexNet(), 256, 16, opts); err == nil {
		t.Fatal("expected an error for a zero inner group size")
	}
}
