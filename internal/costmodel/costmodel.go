// Package costmodel implements the paper's communication-complexity
// formulas as per-layer α–β cost breakdowns. One call, Env.FullIntegrated,
// prices Eq. 9 (fully integrated model+batch+domain) on a Pr × Pc grid
// with a per-layer strategy assignment; Eq. 3 (pure model), Eq. 4 (pure
// batch), Eq. 7 (pure domain) and Eq. 8 (integrated 1.5D model+batch) are
// its grid and assignment corners, and RedistributionSeconds prices
// Eq. 6 (redistribution). Eq. 9 is a sum of per-layer terms, each
// depending only on its own layer's strategy: one function prices a
// term, and FullIntegrated, every StageIteration stage and
// Env.LayerSeconds (one term alone, for per-layer strategy choices) sum
// or read it. The package also carries the 2D-SUMMA
// comparison of Section 4 and the communication/computation overlap
// variant of Fig. 8.
//
// All formulas follow the paper's conventions: sums run over weighted
// layers (conv and FC); the activation all-gather sum runs over all
// weighted layers; the ∆X all-reduce sum skips the first weighted layer
// (no gradient is propagated past layer 1); volumes are in words.
package costmodel

import (
	"fmt"
	"strconv"

	"dnnparallel/internal/collective"
	"dnnparallel/internal/grid"
	"dnnparallel/internal/nn"
)

// Strategy says how the Pr grid dimension is used for one layer in the
// fully integrated scheme of Eq. 9.
type Strategy int

const (
	// Model: the layer is in L_M — Pr partitions the weight matrix
	// (1.5D model parallelism, Fig. 5).
	Model Strategy = iota
	// Domain: the layer is in L_D — Pr partitions each sample spatially
	// (halo exchanges, Fig. 3); weights are replicated on all P processes
	// and the gradient all-reduce spans all P.
	Domain
	// BatchOnly: the layer uses Pr = 1 — pure batch parallelism across
	// all P processes (the Fig. 7 treatment of convolutional layers).
	BatchOnly
)

func (s Strategy) String() string {
	switch s {
	case Model:
		return "model"
	case Domain:
		return "domain"
	case BatchOnly:
		return "batch"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// LayerCost is the α–β communication cost of one weighted layer, split by
// term so figures can show e.g. the batch-parallel (gradient all-reduce)
// portion separately, as the cross-hatching in Fig. 6 does.
type LayerCost struct {
	Index    int    // index into Network.Layers
	Name     string // layer name
	Strategy Strategy

	AllGather  collective.Cost // forward activation all-gather (model part)
	ActReduce  collective.Cost // backprop ∆X all-reduce (model part)
	GradReduce collective.Cost // ∆W all-reduce (batch part)
	FwdHalo    collective.Cost // forward input halo exchange (domain part)
	BwdHalo    collective.Cost // backward output halo exchange (domain part)
}

// Halo returns the combined forward + backward halo-exchange cost of
// Eq. 7. The split fields exist because the two directions move different
// volumes (input vs output panels) and the timeline simulator prices them
// at different points of the schedule.
func (lc LayerCost) Halo() collective.Cost { return lc.FwdHalo.Add(lc.BwdHalo) }

// Total returns the layer's total cost.
func (lc LayerCost) Total() collective.Cost {
	t := lc.AllGather
	t.Accumulate(&lc.ActReduce)
	t.Accumulate(&lc.GradReduce)
	t.Accumulate(&lc.FwdHalo)
	t.Accumulate(&lc.BwdHalo)
	return t
}

// TotalSeconds returns Total().Total() without the per-level
// bookkeeping — the quantity the planner's inner loop compares.
func (lc *LayerCost) TotalSeconds() float64 {
	return lc.AllGather.Total() + lc.ActReduce.Total() + lc.GradReduce.Total() +
		lc.FwdHalo.Total() + lc.BwdHalo.Total()
}

// Breakdown is a whole-network per-iteration communication cost.
type Breakdown struct {
	Desc   string
	Layers []LayerCost

	// LevelNames labels the link levels of the topology the breakdown
	// was priced against (innermost first), matching the
	// collective.Cost.Levels attribution its layer costs carry; nil for
	// flat-machine breakdowns.
	LevelNames []string
}

// newBreakdown starts a breakdown sized for nlayers layer costs,
// stamping the environment's level names when pricing is
// topology-aware. The capacity hint matters: the planner's search loop
// builds thousands of breakdowns, and growing Layers by doubling would
// copy the (wide) LayerCost values several times per candidate.
func (e Env) newBreakdown(desc string, nlayers int) *Breakdown {
	b := &Breakdown{Desc: desc, Layers: make([]LayerCost, 0, nlayers)}
	if !e.Flat() {
		b.LevelNames = e.levelNames()
	}
	return b
}

// gridDesc renders "<scheme>, grid=PrxPc, B=<B>" without fmt: the
// search loop formats a desc per candidate, and fmt's reflection is
// measurable there.
func gridDesc(scheme string, g grid.Grid, B int) string {
	return scheme + ", grid=" + strconv.Itoa(g.Pr) + "x" + strconv.Itoa(g.Pc) +
		", B=" + strconv.Itoa(B)
}

// LevelSeconds sums the per-level attribution across every layer and
// collective: entry i is the seconds the iteration spends on link level
// i (innermost first, labeled by LevelNames). nil for flat breakdowns.
func (b *Breakdown) LevelSeconds() []float64 {
	if len(b.LevelNames) == 0 {
		return nil
	}
	t := b.Total()
	out := make([]float64, len(b.LevelNames))
	for i := range out {
		out[i] = t.Level(i)
	}
	return out
}

// Total returns the per-iteration total communication cost.
func (b *Breakdown) Total() collective.Cost {
	var t collective.Cost
	for i := range b.Layers {
		l := &b.Layers[i]
		t.Accumulate(&l.AllGather)
		t.Accumulate(&l.ActReduce)
		t.Accumulate(&l.GradReduce)
		t.Accumulate(&l.FwdHalo)
		t.Accumulate(&l.BwdHalo)
	}
	return t
}

// TotalSeconds returns Total().Total(), computed without the per-level
// bookkeeping (Total() is element-wise, so the seconds sum commutes).
func (b *Breakdown) TotalSeconds() float64 {
	var t float64
	for i := range b.Layers {
		t += b.Layers[i].TotalSeconds()
	}
	return t
}

// GradReduceSeconds returns the batch-parallel portion (the ∆W
// all-reduce), i.e. the cross-hatched bars of Fig. 6.
func (b *Breakdown) GradReduceSeconds() float64 {
	var t float64
	for i := range b.Layers {
		t += b.Layers[i].GradReduce.Total()
	}
	return t
}

// ForwardSeconds returns the forward-pass communication (activation
// all-gathers plus the forward halo exchanges).
func (b *Breakdown) ForwardSeconds() float64 {
	var t float64
	for i := range b.Layers {
		l := &b.Layers[i]
		t += l.AllGather.Total() + l.FwdHalo.Total()
	}
	return t
}

// BackwardSeconds returns the backprop communication (∆X and ∆W
// all-reduces plus the backward halo exchanges) — the portion Fig. 8
// overlaps with computation.
func (b *Breakdown) BackwardSeconds() float64 {
	var t float64
	for i := range b.Layers {
		l := &b.Layers[i]
		t += l.ActReduce.Total() + l.GradReduce.Total() + l.BwdHalo.Total()
	}
	return t
}

// domainLayerCost is the Eq. 7 / Eq. 9 per-layer domain cost with halo
// volumes scaled by the local batch B/Pc and the gradient all-reduce over
// all P processes.
func domainLayerCost(net *nn.Network, li, B int, pr *pricer) LayerCost {
	l := &net.Layers[li]
	lc := LayerCost{Index: li, Name: l.Name, Strategy: Domain}
	localB := float64(B) / float64(pr.g.Pc)
	switch l.Kind {
	case nn.Conv:
		fwdHalo := localB * float64(l.In.W*l.In.C) * float64(l.KH/2)
		bwdHalo := localB * float64(l.Out.W*l.Out.C) * float64(l.KW/2)
		if fwdHalo > 0 {
			lc.FwdHalo = pr.halo(fwdHalo)
		}
		if bwdHalo > 0 {
			lc.BwdHalo = pr.halo(bwdHalo)
		}
	case nn.FC:
		// Whole input forward, whole output gradient backward.
		lc.FwdHalo = pr.halo(localB * float64(l.InSize()))
		lc.BwdHalo = pr.halo(localB * float64(l.OutSize()))
	}
	lc.GradReduce = pr.allReduce(pr.all, float64(l.Weights()))
	return lc
}

// modelLayerCost is the Eq. 8 per-layer cost for a layer in L_M.
func modelLayerCost(net *nn.Network, li, B int, pr *pricer, first bool) LayerCost {
	l := &net.Layers[li]
	lc := LayerCost{Index: li, Name: l.Name, Strategy: Model}
	localB := float64(B) / float64(pr.g.Pc)
	lc.AllGather = pr.allGather(pr.col, localB*float64(l.OutSize()))
	if !first {
		lc.ActReduce = pr.allReduce(pr.col, localB*float64(l.InSize()))
	}
	lc.GradReduce = pr.allReduce(pr.row, float64(l.Weights())/float64(pr.g.Pr))
	return lc
}

// FCGradReduceSeconds returns the summed ∆W all-reduce seconds of the
// network's fully-connected layers under the Model strategy on grid g —
// the GradReduce term of their Eq. 9 layer cost. Every
// planner mode assigns Model to FC layers (domain halos there would ship
// whole activation panels, and conv-batch applies only to conv layers),
// so for a fixed (grid, placement) this sum is a monotone additive floor
// under any per-layer assignment: the branch-and-bound lower bound of
// the planner's non-overlapped search adds it to the compute time before
// deciding whether a candidate can still beat the incumbent.
func (e Env) FCGradReduceSeconds(net *nn.Network, g grid.Grid) float64 {
	pr := e.pricerAt(g, 0)
	var secs float64
	for _, li := range net.WeightedLayers() {
		if net.Layers[li].Kind == nn.FC {
			// The ∆W all-reduce is batch-independent: any B prices it.
			lc := pr.layer(net, li, g.Pc, Model, false)
			secs += lc.GradReduce.Total()
		}
	}
	return secs
}

// batchOnlyLayerCost is the Fig. 7 per-layer cost for a conv layer forced
// to pure batch parallelism across all P processes.
func batchOnlyLayerCost(net *nn.Network, li int, pr *pricer) LayerCost {
	l := &net.Layers[li]
	return LayerCost{
		Index: li, Name: l.Name, Strategy: BatchOnly,
		GradReduce: pr.allReduce(pr.all, float64(l.Weights())),
	}
}

// Assignment maps each weighted layer index (an index into Network.Layers)
// to its Strategy. Model is the zero Strategy, so layers absent from the
// map read as Model and a nil assignment prices the Eq. 8 scheme (L_M =
// all layers, L_D = ∅).
type Assignment map[int]Strategy

// UniformAssignment returns an Assignment giving strategy s to every
// weighted layer.
func UniformAssignment(net *nn.Network, s Strategy) Assignment {
	a := make(Assignment)
	for _, li := range net.WeightedLayers() {
		a[li] = s
	}
	return a
}

// ConvAssignment returns the split used by Figs. 7 and 10: convolutional
// layers get convStrategy (BatchOnly for Fig. 7, Domain for Fig. 10) and
// fully-connected layers get fcStrategy (Model).
func ConvAssignment(net *nn.Network, convStrategy, fcStrategy Strategy) Assignment {
	a := make(Assignment)
	for _, li := range net.WeightedLayers() {
		if net.Layers[li].Kind == nn.Conv {
			a[li] = convStrategy
		} else {
			a[li] = fcStrategy
		}
	}
	return a
}

// FullIntegrated returns Eq. 9: the fully integrated model+batch+domain
// cost on a Pr × Pc grid with a per-layer strategy assignment, priced
// against the environment's topology. L_M layers pay Eq. 8 terms over the
// Pr/Pc groups; L_D layers pay halo exchanges at local batch B/Pc plus a
// full-P gradient all-reduce; BatchOnly layers pay only the full-P
// gradient all-reduce.
//
// It is the only Eq. 3–9 pricing call: the paper's other schemes are
// corners of the same grid, not separate code. Sums run over the
// weighted layers i = 1..L; d_i is layer i's output size and |W_i| its
// weight count.
//
// Eq. 8, the integrated 1.5D model+batch scheme, is any grid with a nil
// assignment (L_M = all layers, L_D = ∅):
//
//	T = Σ_{i=1..L} (α⌈log Pr⌉ + β·(B/Pc)·(Pr−1)/Pr·d_i)
//	  + 2·Σ_{i=2..L} (α⌈log Pr⌉ + β·(B/Pc)·(Pr−1)/Pr·d_{i−1})
//	  + 2·Σ_i (α⌈log Pc⌉ + β·(Pc−1)/Pc·|W_i|/Pr)
//
// Eq. 3, pure model parallelism, is the P×1 grid with a nil assignment;
// the third Eq. 8 sum vanishes over 1-process row groups:
//
//	T = Σ_{i=1..L} (α⌈log P⌉ + β·B·(P−1)/P·d_i)
//	  + 2·Σ_{i=2..L} (α⌈log P⌉ + β·B·(P−1)/P·d_{i−1})
//
// Eq. 4, pure batch parallelism, is the 1×P grid with every layer
// BatchOnly (a nil assignment prices the same seconds):
//
//	T = 2·Σ_i (α⌈log P⌉ + β·(P−1)/P·|W_i|)
//
// Eq. 7, pure domain parallelism, is the P×1 grid with every layer
// Domain: each process holds all weights but a 1/P horizontal slab of
// all B samples, so the halo volumes carry the full batch:
//
//	T = Σ_i (α + β·B·X_W·X_C·⌊kh/2⌋)        forward input halo
//	  + Σ_i (α + β·B·Y_W·Y_C·⌊kw/2⌋)        backward output halo
//	  + 2·Σ_i (α⌈log P⌉ + β·(P−1)/P·|W_i|)  gradient all-reduce
//
// For FC layers the paper sets kh = X_H, kw = X_W: the halo is the whole
// input (forward) and output (backward) activation block, which is why
// domain parallelism is never chosen for FC layers.
//
// Eq. 6, the batch→model redistribution, is RedistributionSeconds.
func (e Env) FullIntegrated(net *nn.Network, B int, g grid.Grid, assign Assignment) *Breakdown {
	widx := net.WeightedLayers()
	b := e.newBreakdown(gridDesc("full integrated", g, B), len(widx))
	pr := e.pricerAt(g, 0)
	for _, li := range widx {
		b.Layers = append(b.Layers, pr.layer(net, li, B, assign[li], li == widx[0]))
	}
	return b
}

// LayerSeconds returns the Eq. 9 term of weighted layer li under
// strategy s at batch B on grid g — one summand of FullIntegrated's
// total, priced alone. Each term depends only on its own layer's
// strategy, so a per-layer choice needs no whole-network breakdown.
// Bind the environment to g first when pricing many layers.
func (e Env) LayerSeconds(net *nn.Network, li, B int, g grid.Grid, s Strategy) float64 {
	lc := e.pricerAt(g, 0).layer(net, li, B, s, li == net.WeightedLayers()[0])
	return lc.TotalSeconds()
}

// layer prices weighted layer li at batch B under strategy s on the
// pricer's grid — the only switch from a strategy to its Eq. 7/8/Fig. 7
// terms. first marks the network's very first weighted layer, the only
// one that skips the ∆X all-reduce (no gradient propagates past layer
// 1). A Model layer that merely comes first within L_M or within a
// pipeline stage still pays it: its ∆X must reach the domain-parallel
// layer below, or ride the backward handoff to the previous stage.
func (p *pricer) layer(net *nn.Network, li, B int, s Strategy, first bool) LayerCost {
	switch s {
	case Model:
		return modelLayerCost(net, li, B, p, first)
	case Domain:
		return domainLayerCost(net, li, B, p)
	case BatchOnly:
		return batchOnlyLayerCost(net, li, p)
	}
	panic(fmt.Sprintf("costmodel: layer %d has unknown strategy %v", li, s))
}

// RedistributionSeconds prices the Eq. 6 redistribution at every layer
// boundary where the strategy changes: the activations must be
// re-laid-out from the upstream distribution into the replicated panels
// the model-parallel layers consume. On a Pr × Pc grid this is a
// column-group all-gather of the local activation panel — α⌈log Pr⌉ +
// β·(B/Pc)·(Pr−1)/Pr·d_i per boundary (Eq. 6 with P = Pr on the local
// batch; the paper's pure-model form is the Pc = 1 special case) —
// charged once forward and once for the transposed backward
// redistribution. With Pr = 1 the layout is already compatible and the
// cost vanishes.
func (e Env) RedistributionSeconds(net *nn.Network, B int, g grid.Grid, assign Assignment) float64 {
	if g.Pr == 1 {
		return 0
	}
	pr := e.pricerAt(g, 0)
	widx := net.WeightedLayers()
	var secs float64
	for k := 1; k < len(widx); k++ {
		prev, cur := assign[widx[k-1]], assign[widx[k]]
		if prev == cur {
			continue
		}
		words := float64(B) / float64(g.Pc) * float64(net.Layers[widx[k-1]].OutSize())
		secs += 2 * pr.allGather(pr.col, words).Total()
	}
	return secs
}

// VolumeRatioBatchOverModel returns Eq. 5 for one convolutional layer: the
// ratio of pure-batch to pure-model communication *volume*,
// 2·|W_i| / (3·B·d_i) = 2·kh·kw·X_C / (3·B·Y_H·Y_W). Values > 1 mean model
// parallelism moves fewer words.
func VolumeRatioBatchOverModel(l *nn.Layer, B int) float64 {
	return 2 * float64(l.Weights()) / (3 * float64(B) * float64(l.OutSize()))
}

// ModelBatchCrossoverB returns the largest batch size for which model
// parallelism has lower communication volume than batch parallelism on
// layer l (Eq. 5): B < 2·kh·kw·X_C/(3·Y_H·Y_W). Returns 0 when batch
// parallelism always wins.
func ModelBatchCrossoverB(l *nn.Layer) int {
	num := 2 * float64(l.Weights())
	den := 3 * float64(l.OutSize())
	cross := num / den
	b := int(cross)
	if float64(b) == cross && b > 0 {
		b-- // strict inequality
	}
	if b < 0 {
		return 0
	}
	return b
}
