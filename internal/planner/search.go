// Deterministic parallel search: Optimize's candidate loop as a
// worker-pool engine with branch-and-bound pruning.
//
// The serial planner folded the (stage count, grid, placement, partition,
// micro-batch) product in nested loops. This file flattens the product
// into an indexed work list during a serial enumeration phase, evaluates
// the leaves across Options.Workers goroutines (every leaf is a pure
// function of its inputs), and reduces the per-leaf plans back into the
// per-(stage count, grid) slots of Result.All with exactly the serial
// fold's comparison rules. Because the reduction runs serially over a
// deterministically indexed plan array, the returned Result is
// bit-identical for any worker count, including 1.
//
// Branch-and-bound: before pricing a leaf's communication or running the
// timeline simulator, a monotone lower bound on its iteration time —
// per-micro compute (placement- and schedule-invariant) plus, in the
// non-overlapped closed form on a uniform topology, the cheapest ∆W
// all-reduce the candidate must still pay — is checked against the best
// cost seen so far.
// A naive shared best would make the pruned set depend on goroutine
// scheduling, so the work list is processed in fixed-size chunks with
// the incumbent frozen at chunk boundaries: every leaf of chunk c sees
// exactly the best feasible cost of chunks [0, c), regardless of worker
// count. Pruned leaves are counted SearchStats.Bounded and carry a
// placeholder infeasible plan; the winning plan and the pure-batch
// baseline (exempt from pruning) are provably identical with bounds on
// or off — a pruned leaf's true cost is at least its bound, which
// exceeds an incumbent that itself is at least the final best, so no
// pruned leaf can win the global fold. Losing Result.All entries and
// intermediate entries of the improvement trajectory may collapse into
// placeholders (the trajectory stays a subsequence of the exhaustive
// one, ending on the same winner); Options.DisableBounds switches the
// pruning off entirely for callers who want every candidate priced.
//
// Evaluation: a leaf that passes the structural checks is priced on one
// of two paths. Timeline-scored leaves — any stage count, any
// micro-batch count — run costmodel.StageIteration (a one-stage
// partition when S = 1); the rest get the paper's closed-form M = 1
// scoring (the Figs. 6/7 setting), which no simulation reproduces bit
// for bit.
//
// Memoization: compute.Model.GridLayerTimes and the per-layer compute
// costs the partition enumeration balances are evaluated once per
// (grid, batch) during enumeration and shared read-only by the lower
// bounds of every placement × partition × micro-batch leaf.
package planner

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dnnparallel/internal/compute"
	"dnnparallel/internal/costmodel"
	"dnnparallel/internal/grid"
	"dnnparallel/internal/nn"
	"dnnparallel/internal/stage"
	"dnnparallel/internal/timeline"
)

// boundChunk is the branch-and-bound chunk size: the pruning incumbent
// is frozen while one chunk of leaves evaluates in parallel and advances
// only at chunk boundaries. It is a constant — never derived from the
// worker count — because the chunk schedule defines which candidates are
// pruned, and that set must not change with parallelism. Searches with
// at most one chunk of leaves (e.g. the paper's flat 10-grid sweep)
// never prune.
const boundChunk = 16

// boundSlack relaxes the lower bound by a hair before comparing it to
// the incumbent. The bound and the full evaluation compute the same
// quantities with different floating-point association (per-layer prefix
// sums vs. the aggregate closed forms), so a mathematically tight bound
// could exceed the true cost by a few ulps and prune a winner on a
// near-tie. 1e-9 relative is orders of magnitude above that noise and
// costs no meaningful pruning power.
const boundSlack = 1 - 1e-9

// timesKey identifies one memoized per-layer compute split.
type timesKey struct{ pr, pc, b int }

// gridTimes is one memoized compute.Model.GridLayerTimes result plus the
// derived aggregates the lower bounds read: prefix sums of the per-layer
// fwd+bwd seconds (prefix[k] covers weighted layers [0, k)), the
// direction-split prefixes the staged pipeline chain bound needs, their
// total, and the residual overhead.
type gridTimes struct {
	times    []compute.LayerTime
	overhead float64
	total    float64
	prefix   []float64
	fwdPre   []float64
	bwdPre   []float64
}

// computeCache memoizes GridLayerTimes for the lower bounds of the
// candidates that share (grid, batch). The map is written only during
// the serial enumeration phase and read concurrently by the worker pool.
type computeCache struct {
	cm  compute.Model
	net *nn.Network
	m   map[timesKey]*gridTimes
}

func newComputeCache(cm compute.Model, net *nn.Network) *computeCache {
	return &computeCache{cm: cm, net: net, m: make(map[timesKey]*gridTimes)}
}

func (c *computeCache) build(g grid.Grid, b int) *gridTimes {
	times, ov := c.cm.GridLayerTimes(c.net, b, g)
	gt := &gridTimes{times: times, overhead: ov,
		prefix: make([]float64, len(times)+1),
		fwdPre: make([]float64, len(times)+1),
		bwdPre: make([]float64, len(times)+1)}
	for i, t := range times {
		gt.prefix[i+1] = gt.prefix[i] + t.Fwd + t.Bwd
		gt.fwdPre[i+1] = gt.fwdPre[i] + t.Fwd
		gt.bwdPre[i+1] = gt.bwdPre[i] + t.Bwd
	}
	gt.total = gt.prefix[len(times)]
	return gt
}

// fill populates the entry for (g, b); enumeration-phase only.
func (c *computeCache) fill(g grid.Grid, b int) {
	k := timesKey{g.Pr, g.Pc, b}
	if _, ok := c.m[k]; !ok {
		c.m[k] = c.build(g, b)
	}
}

// peek returns the entry for (g, b), computing a fresh one — without
// storing it, so concurrent readers never see a write — on a miss.
// Cached and fresh entries are bit-identical (GridLayerTimes is pure),
// so a miss can never change a result, only waste the memoization.
func (c *computeCache) peek(g grid.Grid, b int) *gridTimes {
	if gt, ok := c.m[timesKey{g.Pr, g.Pc, b}]; ok {
		return gt
	}
	return c.build(g, b)
}

// floorKey identifies one memoized ∆W communication floor.
type floorKey struct {
	pr, pc int
	pl     grid.Placement
}

// leaf is one fully specified candidate: a (batch size, stage count,
// grid, placement, partition, micro-batch) tuple awaiting evaluation.
type leaf struct {
	B     int
	S     int
	g     grid.Grid
	pl    grid.Placement
	part  stage.Partition // one stage when S = 1
	micro int
	// pure marks the 1×P pure-batch baseline at the base batch size,
	// which is exempt from bounding: Result.PureBatch is the reference
	// the paper's speedups are quoted against, so it must always be
	// fully priced.
	pure bool
}

// slot is one entry of Result.All: a (batch size, stage count, grid)
// tuple whose leaves [start, start+n) — placement-major, then partition,
// then micro-batch — reduce to a single reported plan. Pseudo slots (S
// values that do not divide P, partition errors) carry their pre-built
// infeasible plan and own no leaves.
type slot struct {
	B          int
	S          int
	g          grid.Grid
	pure       bool
	pseudo     *Plan
	start, n   int
	placements int // S == 1: this many placements …
	micros     int // … with this many micro-batch leaves each
}

// search is one Optimize or Evaluate invocation's engine state.
type search struct {
	net  *nn.Network
	B, P int // B is the base batch size (Optimize's argument)
	// pin, when set, replaces the grid factorizations of every stage
	// count with this one per-stage grid (Evaluate); P is then unused.
	pin    *grid.Grid
	opts   Options
	bounds bool
	cc     *computeCache
	floors map[floorKey]float64
	// batches is the batch search space (Options.batchSizes(B)); steps
	// memoizes Curve.Steps per batch size under the TimeToAccuracy
	// objective (nil under Iteration), converting iteration-time lower
	// bounds and incumbents into objective units.
	batches []int
	steps   map[int]float64
	slots   []slot
	leaves  []leaf
	plans   []Plan
	// lbs/lbOK hold the per-leaf lower bounds computed once by run()'s
	// ordering pass; evalLeaf reads them instead of re-deriving the bound
	// per leaf. Nil when bounds are disabled.
	lbs  []float64
	lbOK []bool
}

func newSearch(net *nn.Network, B, P int, opts Options) *search {
	s := &search{
		net:     net,
		B:       B,
		P:       P,
		opts:    opts,
		bounds:  !opts.DisableBounds,
		cc:      newComputeCache(opts.Compute, net),
		floors:  make(map[floorKey]float64),
		batches: opts.batchSizes(B),
	}
	if opts.Objective == TimeToAccuracy {
		s.steps = make(map[int]float64, len(s.batches))
		for _, b := range s.batches {
			s.steps[b] = opts.Curve.Steps(b)
		}
	}
	return s
}

// objectiveScale returns the factor converting a leaf's iteration-time
// lower bound into objective units: S(B) under TimeToAccuracy, exactly 1
// under Iteration.
func (s *search) objectiveScale(B int) float64 {
	if s.steps == nil {
		return 1
	}
	return s.steps[B]
}

// enumerate builds the slot and leaf lists in the serial search order —
// batch sizes, then stage counts, then grid factorizations (or the
// pinned grid), then placements × partitions × micro-batches —
// pre-filling the compute memo and the ∆W floors the lower bounds read,
// and counting the enumeration-side telemetry (batches, grids, stage
// counts, partitions, and the pseudo-slot candidates) into st. The
// candidate partitions per stage count are batch-independent, so they
// are enumerated once and shared across the batch sweep (stage counts
// are likewise counted once).
func (s *search) enumerate(st *SearchStats) {
	o := s.opts
	counts := o.stageCounts()
	micros := o.microBatches()
	pls := o.placements()
	// The ∆W floor sharpens the bound only where the closed form
	// serializes communication after compute (no overlap, no timeline),
	// and only on a uniform topology, where FCGradReduceSeconds is a
	// closed form. On a hierarchical topology the floor costs a level-span
	// scan per (grid, placement) — measured at roughly a third of pricing
	// the candidate outright, for exactly one M=1 leaf each — so the
	// compute-only bound stands alone there.
	needFloors := s.bounds && !o.UseTimeline && !o.Overlap && o.topology().Uniform()
	layerCosts := layerComputeCosts(s.net)
	type partsMemo struct {
		parts []stage.Partition
		err   error
	}
	partsBy := map[int]partsMemo{1: {parts: []stage.Partition{stage.Balanced(len(layerCosts), 1)}}}
	st.BatchSizesSearched = len(s.batches)
	for bi, B := range s.batches {
		for _, S := range counts {
			if bi == 0 {
				st.StageCountsSearched++
			}
			pseudo := func(reason string) {
				st.Candidates++
				st.StageCandidates++
				st.InfeasiblePruned++
				p := Plan{Batch: B, Mode: o.Mode, MicroBatch: 1, Schedule: o.Schedule, Stages: S, Reason: reason}
				if s.pin != nil {
					p.Grid = *s.pin
				}
				s.slots = append(s.slots, slot{B: B, S: S, pseudo: &p})
			}
			grids := []grid.Grid(nil)
			switch {
			case s.pin != nil:
				grids = []grid.Grid{*s.pin}
			case s.P%S != 0:
				pseudo(fmt.Sprintf("S=%d stages do not divide P=%d", S, s.P))
				continue
			default:
				grids = grid.Factorizations(s.P / S)
			}
			pm, ok := partsBy[S]
			if !ok {
				pm.parts, pm.err = o.partitions(layerCosts, S)
				partsBy[S] = pm
				if pm.err == nil {
					st.PartitionsEnumerated += len(pm.parts)
				}
			}
			if pm.err != nil {
				pseudo(pm.err.Error())
				continue
			}
			for _, g := range grids {
				st.GridsEnumerated++
				gp := pls
				if g.Pr == 1 || g.Pc == 1 {
					// Degenerate grids have identical rank mappings under
					// every placement; extra placements would duplicate
					// the first plan.
					gp = gp[:1]
				}
				sl := slot{B: B, S: S, g: g, pure: S == 1 && B == s.B && g.IsPureBatch(), start: len(s.leaves),
					placements: len(gp), micros: len(micros)}
				for _, pl := range gp {
					if needFloors && S == 1 {
						s.fillFloor(g, pl)
					}
					for _, part := range pm.parts {
						for _, m := range micros {
							s.leaves = append(s.leaves, leaf{B: B, S: S, g: g, pl: pl, part: part, micro: m, pure: sl.pure})
						}
					}
				}
				if s.bounds {
					s.prefillTimes(B, g, micros)
				}
				sl.n = len(s.leaves) - sl.start
				s.slots = append(s.slots, sl)
			}
		}
	}
}

// prefillTimes memoizes the compute splits the lower bounds of a
// (batch, grid) pair's leaves read: one per candidate micro-batch size.
func (s *search) prefillTimes(B int, g grid.Grid, micros []int) {
	s.cc.fill(g, B)
	for _, m := range micros {
		if m >= 1 && B%m == 0 {
			s.cc.fill(g, B/m)
		}
	}
}

func (s *search) fillFloor(g grid.Grid, pl grid.Placement) {
	k := floorKey{g.Pr, g.Pc, pl}
	if _, ok := s.floors[k]; ok {
		return
	}
	env := costmodel.Env{Topo: s.opts.topology(), Placement: pl}
	s.floors[k] = env.FCGradReduceSeconds(s.net, g)
}

// lowerBound returns a monotone lower bound on the leaf's objective
// cost, or ok=false when the leaf fails a structural constraint (it then
// flows through evalLeaf to be classified InfeasiblePruned with its
// exact reason, exactly as without bounds).
//
// The bound is compute-only plus terms the schedule provably cannot
// hide: every simulated or closed-form iteration is at least its busiest
// compute lane — M micro-batches' fwd+bwd per-layer times on a single
// stage, or M × the heaviest stage's slice under a partition — plus the
// per-iteration fixed overhead and the M-scaled unweighted-layer
// compute; the non-overlapped closed form additionally serializes all
// communication, of which the FC layers' Model-strategy ∆W all-reduce
// is an assignment-independent floor. Under the TimeToAccuracy objective
// the iteration-time bound is scaled by S(B) — the candidate's exact
// steps multiplier — which keeps it a true lower bound on the campaign
// cost and lets cheap-iteration batch sizes prune expensive ones.
func (s *search) lowerBound(lf *leaf) (float64, bool) {
	o := s.opts
	g := lf.g
	if o.structural(s.net, lf.B, g, lf.micro) != "" {
		return 0, false
	}
	mb := lf.B / lf.micro
	scale := s.objectiveScale(lf.B)
	gt := s.cc.peek(g, mb)
	fixed := o.Compute.FixedIter
	M := float64(lf.micro)
	if lf.S == 1 {
		if lf.micro == 1 {
			lb := gt.total + gt.overhead
			if !o.UseTimeline && !o.Overlap {
				lb += s.floors[floorKey{g.Pr, g.Pc, lf.pl}]
			}
			return lb * scale, true
		}
		// One stage runs all M micro-batches on one compute lane; the
		// pipeline overhead contributes FixedIter once plus the
		// unweighted compute per micro-batch (the flush update is ≥ 0).
		return (M*(gt.total+gt.overhead-fixed) + fixed) * scale, true
	}
	// Stage-partitioned: for every stage k there is a dependency chain no
	// schedule can compress — micro-batch 1's forward must traverse the
	// stages before k before k's lane can start, k's lane then serially
	// executes all M micro-batches of its own slice, and its last
	// operation is some micro-batch's backward, which still has to
	// propagate back through the stages before k. The bound is the
	// longest such chain over k.
	// A single micro-batch also traverses every stage forward and
	// backward serially, so the whole-network per-micro compute is a
	// second schedule-independent chain.
	chain := gt.total
	for k := 0; k < lf.S; k++ {
		lo, hi := lf.part.Bounds(k)
		c := gt.fwdPre[lo] + M*(gt.prefix[hi]-gt.prefix[lo]) + gt.bwdPre[lo]
		if c > chain {
			chain = c
		}
	}
	return (chain + fixed + M*(gt.overhead-fixed)) * scale, true
}

// evalLeaf evaluates leaf i against the frozen incumbent, recording its
// telemetry in the worker's shard: a bound-pruned placeholder, a
// structural rejection, or a priced plan. The leaf's lower bound was
// computed once by run()'s ordering pass (s.lbs/s.lbOK); re-deriving it
// here would double the bound cost for zero information.
func (s *search) evalLeaf(i int, incumbent float64, st *SearchStats) Plan {
	lf := &s.leaves[i]
	o := s.opts
	st.Candidates++
	p := Plan{Grid: lf.g, Batch: lf.B, Placement: lf.pl, Mode: o.Mode, MicroBatch: lf.micro,
		Schedule: o.Schedule, Stages: lf.S}
	if lf.S > 1 {
		st.StageCandidates++
		p.Partition = lf.part.Cuts()
	}
	if s.bounds && !lf.pure && s.lbOK[i] && s.lbs[i]*boundSlack > incumbent {
		st.Bounded++
		kind := "compute"
		if o.Objective == TimeToAccuracy {
			kind = "time-to-accuracy"
		}
		p.Reason = fmt.Sprintf("pruned: %s lower bound %.4gs exceeds incumbent best %.4gs",
			kind, s.lbs[i], incumbent)
		return p
	}
	if p.Reason = o.structural(s.net, lf.B, lf.g, lf.micro); p.Reason != "" {
		st.InfeasiblePruned++
		return p
	}
	if o.UseTimeline || lf.S > 1 || lf.micro > 1 {
		s.simulate(&p, lf.part, st)
	} else {
		s.closedForm(&p, st)
	}
	return p
}

// closedForm prices a structurally feasible single-stage M = 1 plan with
// the paper's aggregate closed form: the Eq. 3–9 breakdown, the grid
// compute time, and the legacy Overlap flag.
func (s *search) closedForm(p *Plan, st *SearchStats) {
	o := s.opts
	B, g := p.Batch, p.Grid
	priceStart := time.Now()
	env := costmodel.Env{Topo: o.topology(), Placement: p.Placement}
	p.Assignment = assignmentFor(s.net, B, g, o.Mode, env)
	p.MemoryWords = costmodel.Memory(s.net, B, g, p.Assignment).TotalWords()
	if s.overMemory(p, st, priceStart) {
		return
	}
	p.Feasible = true
	p.Breakdown = env.FullIntegrated(s.net, B, g, p.Assignment)
	p.CommSeconds = p.Breakdown.TotalSeconds()
	st.Priced++
	st.PriceSeconds += time.Since(priceStart).Seconds()
	p.CompSeconds = o.Compute.GridIterTime(s.net, B, g)
	p.IterSeconds = costmodel.IterationSeconds(p.Breakdown, p.CompSeconds, o.Overlap)
	s.finish(p, env)
}

// simulate prices a structurally feasible plan with the timeline
// simulator via costmodel.StageIteration: every stage's layers on the
// shared grid at the stage's rank offset, boundary handoffs priced
// against the topology level each cut crosses, memory pruned on the
// tightest stage's footprint. The Eq. 3–9 re-pricing at micro-batch size
// B/M happens inside StageIteration, so its whole duration is accounted
// to the simulate phase (see SearchStats).
func (s *search) simulate(p *Plan, part stage.Partition, st *SearchStats) {
	o := s.opts
	B, g, S, micro := p.Batch, p.Grid, p.Stages, p.MicroBatch
	sched := timeline.Schedule{Shape: o.Schedule, MicroBatches: micro, Stages: S}
	priceStart := time.Now()
	env := costmodel.Env{Topo: o.topology(), Placement: p.Placement}
	// The per-layer strategy is chosen at the micro-batch size the
	// schedule actually runs: α-heavy small messages can flip a conv
	// layer's cheapest strategy relative to the full-batch choice.
	p.Assignment = assignmentFor(s.net, B/micro, g, o.Mode, env)
	grids := make([]grid.Grid, S)
	for k := range grids {
		grids[k] = g
	}
	// The tightest stage governs feasibility: every process must fit its
	// own stage's weights plus the stash its schedule position forces.
	for _, m := range costmodel.MemoryStages(s.net, B, part, grids, p.Assignment, sched) {
		if w := m.TotalWords(); w > p.MemoryWords {
			p.MemoryWords = w
		}
	}
	if s.overMemory(p, st, priceStart) {
		return
	}
	st.Priced++
	st.PriceSeconds += time.Since(priceStart).Seconds()
	simStart := time.Now()
	sc, err := env.StageIteration(s.net, B, part, grids, p.Assignment, o.Compute, o.TimelinePolicy, sched)
	st.TimelineSimulated++
	st.SimulateSeconds += time.Since(simStart).Seconds()
	if err != nil {
		p.Reason = fmt.Sprintf("timeline simulation failed: %v", err)
		return
	}
	p.Feasible = true
	p.Breakdown = sc.Breakdown // per-micro-batch costs, all stages in layer order
	p.Timeline = sc.Result
	p.BubbleFraction = sc.Result.BubbleFraction
	if S > 1 {
		p.PerStage = sc.Stages
	}
	p.CommSeconds = sc.Result.CommSeconds // M·activations + 1·gradient flush
	p.CompSeconds = sc.Result.ComputeSeconds + sc.Overhead
	p.IterSeconds = sc.IterSeconds()
	s.finish(p, env)
}

// overMemory rejects a plan whose per-process footprint exceeds
// Options.MemoryLimitWords, charging the pricing time spent so far.
func (s *search) overMemory(p *Plan, st *SearchStats, priceStart time.Time) bool {
	limit := s.opts.MemoryLimitWords
	if limit <= 0 || p.MemoryWords <= limit {
		return false
	}
	p.Reason = fmt.Sprintf("per-process memory %.3g words exceeds limit %.3g", p.MemoryWords, limit)
	st.MemoryPruned++
	st.PriceSeconds += time.Since(priceStart).Seconds()
	return true
}

// finish completes a priced plan: the Eq. 6 redistribution, the exposed
// communication, the epoch time, and the time-to-accuracy campaign.
func (s *search) finish(p *Plan, env costmodel.Env) {
	o := s.opts
	B := p.Batch
	if o.AddRedistribution {
		// Activations are redistributed at every strategy boundary of
		// every micro-batch; the all-gathers block the next layer's
		// compute, so they are never overlapped.
		r := float64(p.MicroBatch) * env.RedistributionSeconds(s.net, B/p.MicroBatch, p.Grid, p.Assignment)
		p.CommSeconds += r
		p.IterSeconds += r
	}
	p.ExposedCommSeconds = math.Max(0, p.IterSeconds-p.CompSeconds)
	if o.DatasetN > 0 {
		p.EpochSeconds = costmodel.EpochSeconds(p.IterSeconds, o.DatasetN, B)
	}
	if o.Objective == TimeToAccuracy {
		p.StepsToTarget = o.Curve.Steps(B)
		p.TimeToAccuracySeconds = p.StepsToTarget * p.IterSeconds
	}
}

// run evaluates every leaf across the worker pool, chunk by chunk, and
// merges the per-worker telemetry shards into st.
//
// With bounds enabled the leaves are visited in ascending lower-bound
// order (stable on the enumeration index): the cheapest-looking
// candidates evaluate first, so the incumbent falls fast and the
// expensive tail is pruned before pricing. The visit order is a pure
// function of the enumerated leaves — never of worker count or timing —
// and every result still lands at its leaf's own index, so the reduced
// Result is unchanged by the reordering and identical for any worker
// count.
func (s *search) run(st *SearchStats) {
	n := len(s.leaves)
	if n == 0 {
		return
	}
	s.plans = make([]Plan, n)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	if s.bounds {
		s.lbs = make([]float64, n)
		s.lbOK = make([]bool, n)
		for i := range s.leaves {
			// Structurally infeasible leaves keep lb = 0: they sort to
			// the front, where their (cheap, never-priced) classification
			// cannot delay the incumbent.
			if lb, ok := s.lowerBound(&s.leaves[i]); ok {
				s.lbs[i], s.lbOK[i] = lb, true
			}
		}
		sort.SliceStable(order, func(a, b int) bool { return s.lbs[order[a]] < s.lbs[order[b]] })
	}
	workers := s.opts.Workers
	if workers <= 0 {
		// Default to the scheduler's parallelism, but never oversubscribe
		// the physical cores: the leaves are CPU-bound, so workers beyond
		// NumCPU only add contention (the result is identical for any
		// worker count, so the cap is purely a scheduling choice).
		workers = runtime.GOMAXPROCS(0)
		if ncpu := runtime.NumCPU(); workers > ncpu {
			workers = ncpu
		}
	}
	if workers > n {
		workers = n
	}
	shards := make([]SearchStats, workers)
	incumbent := math.Inf(1)
	for lo := 0; lo < n; lo += boundChunk {
		hi := lo + boundChunk
		if hi > n {
			hi = n
		}
		if workers == 1 {
			for p := lo; p < hi; p++ {
				i := order[p]
				s.plans[i] = s.evalLeaf(i, incumbent, &shards[0])
			}
		} else {
			// Workers pull visit positions from a shared counter: dynamic
			// balancing within the chunk, while every leaf's result lands
			// at its own index — scheduling decides only who computes
			// what, never what is computed.
			next := int64(lo)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(sh *SearchStats) {
					defer wg.Done()
					for {
						p := int(atomic.AddInt64(&next, 1)) - 1
						if p >= hi {
							return
						}
						i := order[p]
						s.plans[i] = s.evalLeaf(i, incumbent, sh)
					}
				}(&shards[w])
			}
			wg.Wait()
		}
		// Advance the frozen incumbent: chunk boundaries are the only
		// points where pruning decisions may observe new information.
		// The incumbent lives in objective units (iteration seconds, or
		// campaign seconds under TimeToAccuracy), matching the bounds.
		for p := lo; p < hi; p++ {
			if pl := &s.plans[order[p]]; pl.Feasible {
				if c := s.opts.objectiveCost(pl); c < incumbent {
					incumbent = c
				}
			}
		}
	}
	for i := range shards {
		st.merge(shards[i])
	}
}

// reduce folds one slot into its Result.All entry: the pre-built plan of
// a pseudo slot, else the single- or multi-stage fold of its leaves.
func (s *search) reduce(sl *slot) Plan {
	switch {
	case sl.pseudo != nil:
		return *sl.pseudo
	case sl.S == 1:
		return s.reduceFlat(sl)
	}
	return s.reduceStaged(sl)
}

// reduceFlat folds a single-stage slot's leaves: within a placement,
// strictly cheaper wins and equal cost prefers the smaller micro-batch;
// across placements, only strictly cheaper feasible plans replace (ties
// keep the earlier placement, so flat machines deterministically report
// row-major).
func (s *search) reduceFlat(sl *slot) Plan {
	group := func(start int) Plan {
		best := s.plans[start]
		for i := start + 1; i < start+sl.micros; i++ {
			p := s.plans[i]
			if p.Feasible && (!best.Feasible || p.IterSeconds < best.IterSeconds ||
				(p.IterSeconds == best.IterSeconds && p.MicroBatch < best.MicroBatch)) {
				best = p
			}
		}
		return best
	}
	best := group(sl.start)
	for pi := 1; pi < sl.placements; pi++ {
		if p := group(sl.start + pi*sl.micros); p.Feasible &&
			(!best.Feasible || p.IterSeconds < best.IterSeconds) {
			best = p
		}
	}
	return best
}

// reduceStaged folds a multi-stage slot's leaves: one flat fold over
// placements × partitions × micro-batches where strictly cheaper wins
// and equal cost prefers the smaller micro-batch (ties otherwise keep
// the earlier candidate).
func (s *search) reduceStaged(sl *slot) Plan {
	best := s.plans[sl.start]
	for i := sl.start + 1; i < sl.start+sl.n; i++ {
		p := s.plans[i]
		if p.Feasible && (!best.Feasible || p.IterSeconds < best.IterSeconds ||
			(p.IterSeconds == best.IterSeconds && p.MicroBatch < best.MicroBatch)) {
			best = p
		}
	}
	return best
}
