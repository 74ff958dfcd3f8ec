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
	// bound is the pricer Bind built; pricerAt hands it out for its
	// grid at offset 0 instead of classifying the placement again.
	bound *pricer
}

// Flat reports whether the environment degenerates to a flat machine.
func (e Env) Flat() bool { return e.Topo.Uniform() }

// Bind returns the environment with grid g's collective groups already
// classified at rank offset 0, so that every FullIntegrated,
// RedistributionSeconds and FCGradReduceSeconds call on g, and the
// first StageIteration stage on g, reuse one classification instead of
// building their own. Prices are identical with or without it; the
// planner binds each candidate once. The classification belongs to the
// Topo and Placement of the call: bind again after changing them.
func (e Env) Bind(g grid.Grid) Env {
	e.bound = e.pricerAt(g, 0)
	if !e.bound.flat {
		e.bound.levelNames = e.Topo.LevelNames()
	}
	return e
}

// pricer caches the level spans of one grid's collective groups at one
// rank offset so pricing classifies the placement once per candidate
// (Env.Bind) or per call, never per layer.
type pricer struct {
	env Env
	g   grid.Grid
	// col, row, and all are the distinct level spans of the column
	// groups, row groups, and the whole machine; haloLevel is the
	// innermost topology level containing every halo-exchange pair.
	col, row, all []grid.LevelSpan
	haloLevel     int
	// levelNames labels the topology's levels for every breakdown priced
	// through the bound pricer (set by Bind, nil on a flat machine).
	levelNames []string
	// flat caches Env.Flat() and m the degenerate machine so the search
	// loop prices uniform topologies with the closed forms directly —
	// one Uniform() scan per pricer instead of one per collective.
	flat bool
	m    machine.Machine
	// spans backs the single-span slices above so a flat pricer costs
	// one allocation, not four.
	spans [3]grid.LevelSpan
}

// pricerAt returns a pricer for a grid whose process (0,0) sits at
// machine rank `offset` — the rank block of one pipeline stage: the
// bound pricer for its own grid at offset 0, a new one otherwise. On a
// flat machine the offset is irrelevant (every rank is identical); on a
// hierarchical one it decides how the stage's collective groups
// straddle node/rack boundaries, so two stages with the same grid can
// price differently depending on where their blocks start.
func (e Env) pricerAt(g grid.Grid, offset int) *pricer {
	if e.bound != nil && e.bound.g == g && offset == 0 {
		return e.bound
	}
	e.bound = nil // the new pricer's own env holds no other pricer
	p := &pricer{env: e, g: g}
	if e.Flat() {
		// The uniform fast path in internal/collective reads only the
		// group size; skip the placement classification.
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
	p.haloLevel = grid.NeighborsLevel(p.col)
	return p
}

// levelNames returns the topology's level names, shared with the bound
// pricer when there is one.
func (e Env) levelNames() []string {
	if e.bound != nil {
		return e.bound.levelNames
	}
	return e.Topo.LevelNames()
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
