package costmodel

import (
	"dnnparallel/internal/collective"
	"dnnparallel/internal/grid"
	"dnnparallel/internal/machine"
)

// Env is the pricing environment for the Eq. 3–9 formulas: the machine
// topology plus the rank placement that decides where each Pr/Pc
// collective group physically sits. The flat environment
// Env{Topo: machine.Flat(m)} is the paper's setting — a uniform topology
// prices every term with the flat closed forms, bit-for-bit — while a
// hierarchical topology prices each group against its actual level
// span: groups inside one node ride the fast link, one-rank-per-node
// groups the node uplink, and straddling groups pay a recursive
// decomposition level by level (see internal/collective).
type Env struct {
	Topo      machine.Topology
	Placement grid.Placement
}

// Flat reports whether the environment degenerates to a flat machine.
func (e Env) Flat() bool { return e.Topo.Uniform() }

// pricer caches the level spans of one grid's collective groups so each
// FullIntegrated call classifies the placement once, not per layer.
type pricer struct {
	env Env
	g   grid.Grid
	// col, row, and all are the distinct level spans of the column
	// groups, row groups, and the whole machine; haloLevel is the
	// innermost topology level containing every halo-exchange pair.
	col, row, all []grid.LevelSpan
	haloLevel     int
	// flat caches Env.Flat() and m the degenerate machine so the search
	// loop prices uniform topologies with the closed forms directly —
	// one Uniform() scan per pricer instead of one per collective.
	flat bool
	m    machine.Machine
	// spans backs the single-span slices above so the search loop's
	// pricer costs one allocation, not four.
	spans [3]grid.LevelSpan
}

// pricerAt builds a pricer for a grid whose process (0,0) sits at
// machine rank `offset` — the rank block of one pipeline stage. On a
// flat machine the offset is irrelevant (every rank is identical); on a
// hierarchical one it decides how the stage's collective groups straddle
// node/rack boundaries, so two stages with the same grid can price
// differently depending on where their blocks start.
func (e Env) pricerAt(g grid.Grid, offset int) *pricer {
	p := &pricer{env: e, g: g}
	if e.Flat() {
		// The uniform fast path in internal/collective reads only the
		// group size; skip the O(P·L) placement scan.
		p.flat = true
		p.m = e.Topo.Machine()
		p.spans = [3]grid.LevelSpan{{Ranks: g.Pr}, {Ranks: g.Pc}, {Ranks: g.P()}}
		p.col = p.spans[0:1:1]
		p.row = p.spans[1:2:2]
		p.all = p.spans[2:3:3]
		return p
	}
	sizes := e.Topo.GroupSizes()
	p.col = g.ColGroupSpansAt(sizes, e.Placement, offset)
	p.row = g.RowGroupSpansAt(sizes, e.Placement, offset)
	p.spans[2] = g.AllSpanAt(sizes, offset)
	p.all = p.spans[2:3:3]
	p.haloLevel = g.ColNeighborsLevelAt(sizes, e.Placement, offset)
	return p
}

// allGather prices an all-gather over one family of collective groups —
// p.col (the Pr-sized column groups), p.row (the Pc-sized row groups)
// or p.all (the whole grid): the closed form of the group size on a flat
// machine, the worst group shape otherwise.
func (p *pricer) allGather(groups []grid.LevelSpan, words float64) collective.Cost {
	if p.flat {
		return collective.AllGather(groups[0].Ranks, words, p.m)
	}
	return collective.MaxCost(groups, func(s grid.LevelSpan) collective.Cost {
		return collective.AllGatherTopo(s, words, p.env.Topo)
	})
}

// allReduce prices an all-reduce over one family of collective groups
// (see allGather).
func (p *pricer) allReduce(groups []grid.LevelSpan, words float64) collective.Cost {
	if p.flat {
		return collective.AllReduce(groups[0].Ranks, words, p.m)
	}
	return collective.MaxCost(groups, func(s grid.LevelSpan) collective.Cost {
		return collective.AllReduceTopo(s, words, p.env.Topo)
	})
}

// halo prices one halo-exchange message between spatially adjacent ranks
// of a column group.
func (p *pricer) halo(words float64) collective.Cost {
	if p.flat {
		return collective.PointToPoint(words, p.m)
	}
	return collective.PointToPointTopo(p.haloLevel, words, p.env.Topo)
}
