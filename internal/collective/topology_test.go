package collective

import (
	"math"
	"math/rand"
	"testing"

	"dnnparallel/internal/grid"
	"dnnparallel/internal/machine"
)

// span builds the two-level LevelSpan of p ranks over `nodes` nodes with
// at most maxPer ranks on one node — the shape grid.SpanOf classifies on
// a node/cluster machine. minPer is kept for the caller's documentation
// of the shape; the cost model keys off the busiest node only.
func span(p, nodes, maxPer, minPer int) grid.LevelSpan {
	_ = minPer
	return grid.LevelSpan{
		Ranks: p,
		Levels: []grid.LevelStat{
			{Groups: nodes, MaxRanks: maxPer, Fanout: maxPer, Planes: 1},
			{Groups: 1, MaxRanks: p, Fanout: nodes, Planes: maxPer},
		},
	}
}

// A uniform topology must reproduce the flat closed forms bit-for-bit,
// whatever the span says — the flat machine is the one-level special
// case, not an approximation.
func TestUniformTopologyIsExactlyFlat(t *testing.T) {
	m := machine.CoriKNL()
	topo := machine.Flat(m)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		p := 1 + rng.Intn(64)
		nodes := 1 + rng.Intn(p)
		maxPer := (p + nodes - 1) / nodes
		s := span(p, nodes, maxPer, p/nodes)
		words := rng.Float64() * 1e7
		checks := []struct {
			name       string
			flat, topo Cost
		}{
			{"all-gather", AllGather(p, words, m), AllGatherTopo(s, words, topo)},
			{"all-reduce", AllReduce(p, words, m), AllReduceTopo(s, words, topo)},
			{"p2p", PointToPoint(words, m), PointToPointTopo(0, words, topo)},
		}
		for _, c := range checks {
			if c.flat != c.topo {
				t.Fatalf("%s (p=%d words=%g): uniform topo %+v != flat %+v", c.name, p, words, c.topo, c.flat)
			}
			if c.topo.Leveled() {
				t.Fatalf("%s: uniform topology must not carry a level split, got %+v", c.name, c.topo)
			}
		}
	}
}

// Single-level groups use the matching link's constants and carry the
// matching attribution.
func TestSingleLevelClassification(t *testing.T) {
	topo := machine.CoriKNLNodes(4)
	const words = 1e6

	intra := AllReduceTopo(span(4, 1, 4, 4), words, topo)
	wantIntra := AllReduce(4, words, machine.Machine{Alpha: topo.Intra().Alpha, Beta: topo.Intra().Beta})
	if intra.Total() != wantIntra.Total() || intra.Level(0) != intra.Total() || intra.Level(1) != 0 {
		t.Fatalf("intra group: got %+v, want total %g all on the intra link", intra, wantIntra.Total())
	}

	inter := AllReduceTopo(span(4, 4, 1, 1), words, topo)
	wantInter := AllReduce(4, words, topo.Machine())
	if inter.Total() != wantInter.Total() || inter.Level(1) != inter.Total() || inter.Level(0) != 0 {
		t.Fatalf("inter group: got %+v, want total %g all on the inter link", inter, wantInter.Total())
	}
	if intra.Total() >= inter.Total() {
		t.Fatalf("intra-node all-reduce (%g) must beat inter-node (%g) on a 10x-bandwidth node", intra.Total(), inter.Total())
	}
}

// Hand-computed hierarchical all-reduce: 8 ranks as 2 nodes × 4, n words.
// intra: reduce-scatter + all-gather over 4 = 2(α_i·2 + β_i·(3/4)n);
// inter: 4 rank planes, each an all-reduce over 2 nodes of n/4 words,
// serialized on the node's single NIC = 4 · 2(α_I·1 + β_I·(1/2)(n/4)).
func TestHierarchicalAllReduceHandComputed(t *testing.T) {
	topo := machine.CoriKNLNodes(4)
	ai, bi := topo.Intra().Alpha, topo.Intra().Beta
	aI, bI := topo.Inter().Alpha, topo.Inter().Beta
	const n = 4e6

	got := AllReduceTopo(span(8, 2, 4, 4), n, topo)
	wantIntra := 2 * (ai*2 + bi*(3.0/4.0)*n)
	wantInter := 4 * 2 * (aI*1 + bI*0.5*(n/4))
	if math.Abs(got.Level(0)-wantIntra) > 1e-15*wantIntra {
		t.Fatalf("intra portion = %g, want %g", got.Level(0), wantIntra)
	}
	if math.Abs(got.Level(1)-wantInter) > 1e-15*wantInter {
		t.Fatalf("inter portion = %g, want %g", got.Level(1), wantInter)
	}
	if math.Abs(got.Total()-(wantIntra+wantInter)) > 1e-15*got.Total() {
		t.Fatalf("total = %g, want %g", got.Total(), wantIntra+wantInter)
	}
}

// Hand-computed three-level all-reduce: 16 ranks as 2 racks × 2 nodes ×
// 4 ranks, with distinct links per level. The recursion pays
// reduce-scatter + all-gather at the node level (full n), the same pair
// at the rack level on the n/4 shard across each node's 4 planes, and
// the top-level all-reduce of the n/8 shard across the racks' 8-rank
// planes.
func TestThreeLevelAllReduceHandComputed(t *testing.T) {
	node := machine.Link{Alpha: 5e-7, Beta: machine.WordBytes / 60e9}
	rack := machine.Link{Alpha: 1e-6, Beta: machine.WordBytes / 12e9}
	spine := machine.Link{Alpha: 2e-6, Beta: machine.WordBytes / 6e9}
	topo := machine.Topology{
		Name: "three",
		Levels: []machine.Level{
			{Name: "node", Link: node, GroupSize: 4},
			{Name: "rack", Link: rack, GroupSize: 8},
			{Name: "spine", Link: spine},
		},
		PeakFlops: 1,
	}
	const n = 8e6
	s := grid.LevelSpan{
		Ranks: 16,
		Levels: []grid.LevelStat{
			{Groups: 4, MaxRanks: 4, Fanout: 4, Planes: 1},
			{Groups: 2, MaxRanks: 8, Fanout: 2, Planes: 4},
			{Groups: 1, MaxRanks: 16, Fanout: 2, Planes: 8},
		},
	}
	got := AllReduceTopo(s, n, topo)
	wantNode := 2 * (node.Alpha*2 + node.Beta*(3.0/4.0)*n)
	wantRack := 4 * 2 * (rack.Alpha*1 + rack.Beta*0.5*(n/4))
	wantSpine := 8 * 2 * (spine.Alpha*1 + spine.Beta*0.5*(n/8))
	for i, want := range []float64{wantNode, wantRack, wantSpine} {
		if math.Abs(got.Level(i)-want) > 1e-15*want {
			t.Fatalf("level %d portion = %g, want %g", i, got.Level(i), want)
		}
	}
	if total := wantNode + wantRack + wantSpine; math.Abs(got.Total()-total) > 1e-15*total {
		t.Fatalf("total = %g, want %g", got.Total(), total)
	}
}

// Regression for the ROADMAP NIC-congestion item: the mixed-span
// all-reduce must cost MORE than the old uncontended-planes model (one
// plane's inter cost), because the node's MaxPerNode concurrent planes
// serialize on its single inter-node link. The busiest node's NIC
// governs: MaxPerNode planes each carrying that node's words/MaxPerNode
// shard slice, so the serialized bandwidth is the full vector per ring
// pass and the latency scales with the plane count.
func TestMixedSpanAllReduceSerializesPlanes(t *testing.T) {
	topo := machine.CoriKNLNodes(4)
	inter := machine.Machine{Alpha: topo.Inter().Alpha, Beta: topo.Inter().Beta}
	const n = 4e6
	const nodes, maxPer, minPer = 2, 4, 4
	s := span(8, nodes, maxPer, minPer)
	got := AllReduceTopo(s, n, topo)
	onePlane := AllReduce(nodes, n/float64(minPer), inter)
	uncontended := got.Level(0) + onePlane.Total() // the pre-fix total
	if got.Total() <= uncontended {
		t.Fatalf("serialized mixed-span all-reduce %g must exceed the uncontended-planes model %g",
			got.Total(), uncontended)
	}
	want := got.Level(0) + float64(maxPer)*AllReduce(nodes, n/float64(maxPer), inter).Total()
	if math.Abs(got.Total()-want) > 1e-15*want {
		t.Fatalf("serialized mixed-span all-reduce = %g, want intra + MaxPerNode·plane = %g", got.Total(), want)
	}

	// Unbalanced span (5 ranks over 2 nodes, 3+2): the busiest NIC moves
	// the full vector once per ring pass — NOT MaxPerNode planes of the
	// thin node's larger words/MinPerNode shards, which no single node
	// ever sends.
	const uNodes, uMax, uMin = 2, 3, 2
	u := span(5, uNodes, uMax, uMin)
	gotU := AllReduceTopo(u, n, topo)
	wantInter := AllReduce(uNodes, n/float64(uMax), inter).Scale(float64(uMax))
	if math.Abs(gotU.Level(1)-wantInter.Total()) > 1e-15*wantInter.Total() {
		t.Fatalf("unbalanced inter portion = %g, want busiest-NIC %g", gotU.Level(1), wantInter.Total())
	}
	overcounted := AllReduce(uNodes, n/float64(uMin), inter).Scale(float64(uMax))
	if gotU.Level(1) >= overcounted.Total() {
		t.Fatalf("unbalanced inter %g must stay below the Max-planes×Min-shards overcount %g",
			gotU.Level(1), overcounted.Total())
	}
}

// Balanced-span bandwidth accounting with equal β at both levels: the
// all-gather's serialized plane slices telescope back to the flat
// (p−1)/p factor (the NIC moves the result once either way), while the
// all-reduce now pays the NIC serialization — each of
// the m planes pushes its full per-rank shard through the node's single
// link, so the hierarchical bandwidth is (m−1)/m + (n−1)/n of the
// volume, strictly above the flat (p−1)/p.
func TestHierarchicalBandwidthAccounting(t *testing.T) {
	m := machine.CoriKNL()
	// Same β at both levels, but zero latency so only bandwidth shows;
	// differing alphas keep the topology non-uniform.
	topo := machine.TwoLevel("beta-equal",
		machine.Link{Alpha: 0, Beta: m.Beta},
		machine.Link{Alpha: 1e-6, Beta: m.Beta},
		4, 1)
	const words = 1e6
	for _, c := range []struct{ p, nodes, per int }{{8, 2, 4}, {16, 4, 4}, {64, 16, 4}, {6, 3, 2}} {
		s := span(c.p, c.nodes, c.per, c.per)
		mm, nn := float64(c.per), float64(c.nodes)
		congested := (mm-1)/mm + (nn-1)/nn // per ring pass, in units of β·words

		flat := AllReduce(c.p, words, m).Bandwidth
		got := AllReduceTopo(s, words, topo).Bandwidth
		want := 2 * m.Beta * words * congested
		if math.Abs(got-want) > 1e-12*want {
			t.Fatalf("all-reduce %d=%dx%d: hierarchical bandwidth %g, want %g", c.p, c.nodes, c.per, got, want)
		}
		if got <= flat {
			t.Fatalf("all-reduce %d=%dx%d: NIC-serialized bandwidth %g must exceed flat %g", c.p, c.nodes, c.per, got, flat)
		}

		flat = AllGather(c.p, words, m).Bandwidth
		got = AllGatherTopo(s, words, topo).Bandwidth
		if math.Abs(got-flat) > 1e-12*flat {
			t.Fatalf("all-gather %d=%dx%d: hierarchical bandwidth %g != flat %g", c.p, c.nodes, c.per, got, flat)
		}
	}
}

// Every leveled cost's attribution must add up to its total.
func TestLevelAttributionSumsToTotal(t *testing.T) {
	topo := machine.CoriKNLNodes(4)
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		nodes := 1 + rng.Intn(8)
		per := 1 + rng.Intn(4)
		s := span(nodes*per, nodes, per, per)
		words := rng.Float64() * 1e6
		for name, c := range map[string]Cost{
			"all-gather": AllGatherTopo(s, words, topo),
			"all-reduce": AllReduceTopo(s, words, topo),
		} {
			if s.Ranks > 1 && !c.Leveled() {
				t.Fatalf("%s on non-uniform topology must be leveled: %+v", name, c)
			}
			if d := math.Abs(c.LevelSum() - c.Total()); d > 1e-12*math.Max(c.Total(), 1e-300) {
				t.Fatalf("%s: level sum %g != Total %g", name, c.LevelSum(), c.Total())
			}
		}
	}
}

// P2P classification: same-node pairs ride the intra link.
func TestPointToPointTopo(t *testing.T) {
	topo := machine.CoriKNLNodes(4)
	const words = 1e5
	same := PointToPointTopo(0, words, topo)
	cross := PointToPointTopo(1, words, topo)
	if same.Total() >= cross.Total() {
		t.Fatalf("same-node p2p %g must beat cross-node %g", same.Total(), cross.Total())
	}
	if same.Level(0) != same.Total() || cross.Level(1) != cross.Total() {
		t.Fatalf("p2p attribution wrong: same=%+v cross=%+v", same, cross)
	}
	want := topo.Inter().Alpha + topo.Inter().Beta*words
	if math.Abs(cross.Total()-want) > 1e-18 {
		t.Fatalf("cross-node p2p = %g, want %g", cross.Total(), want)
	}
}

// MaxCost picks the governing span.
func TestMaxCost(t *testing.T) {
	topo := machine.CoriKNLNodes(4)
	spans := []grid.LevelSpan{span(4, 1, 4, 4), span(4, 4, 1, 1)}
	got := MaxCost(spans, func(s grid.LevelSpan) Cost { return AllReduceTopo(s, 1e6, topo) })
	want := AllReduceTopo(spans[1], 1e6, topo)
	if got != want {
		t.Fatalf("MaxCost picked %+v, want the inter-node span's %+v", got, want)
	}
	if (MaxCost(nil, nil) != Cost{}) {
		t.Fatal("MaxCost(nil) must be the zero cost")
	}
}

// Mixed groups on a degenerate "all latency" topology still satisfy the
// zero-size and singleton edge cases.
func TestTopoEdgeCases(t *testing.T) {
	topo := machine.CoriKNLNodes(4)
	for name, c := range map[string]Cost{
		"empty all-reduce":     AllReduceTopo(grid.LevelSpan{}, 1e6, topo),
		"singleton all-gather": AllGatherTopo(span(1, 1, 1, 1), 1e6, topo),
	} {
		if (c != Cost{}) {
			t.Fatalf("%s: want zero cost, got %+v", name, c)
		}
	}
}
