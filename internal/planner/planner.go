// Package planner turns the paper's analysis into a decision procedure:
// given a network, a global minibatch size B, a process count P and a
// machine, it searches the Pr × Pc factorizations and per-layer strategy
// assignments of Eq. 9 and returns the configuration minimizing predicted
// iteration time. This is the "automatically selects the best
// configuration" capability claimed in Section 2.3, including the
// beyond-batch regime P > B of Section 2.4 where only domain/model
// parallelism can supply the extra processes.
package planner

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"dnnparallel/internal/compute"
	"dnnparallel/internal/convergence"
	"dnnparallel/internal/costmodel"
	"dnnparallel/internal/grid"
	"dnnparallel/internal/machine"
	"dnnparallel/internal/nn"
	"dnnparallel/internal/stage"
	"dnnparallel/internal/timeline"
)

// Mode selects how convolutional layers are treated during the search.
type Mode int

const (
	// Uniform applies the same Pr × Pc model+batch grid to every layer
	// (the Fig. 6 setting).
	Uniform Mode = iota
	// ConvBatch forces convolutional layers to pure batch parallelism
	// (Pr = 1 for conv; the Fig. 7 setting). Requires P ≤ B.
	ConvBatch
	// ConvDomain uses domain parallelism on convolutional layers and
	// 1.5D model+batch on FC layers (the Fig. 10 setting).
	ConvDomain
	// Auto picks, per convolutional layer, the cheapest of model /
	// domain / pure-batch given the grid (pure batch only when P ≤ B).
	Auto
)

func (m Mode) String() string {
	switch m {
	case Uniform:
		return "uniform"
	case ConvBatch:
		return "conv-batch"
	case ConvDomain:
		return "conv-domain"
	case Auto:
		return "auto"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// ParseMode converts a flag or spec value into a Mode. The empty string
// parses as Uniform (the zero value), mirroring timeline.ParsePolicy.
func ParseMode(s string) (Mode, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "uniform", "":
		return Uniform, nil
	case "conv-batch", "convbatch":
		return ConvBatch, nil
	case "conv-domain", "convdomain":
		return ConvDomain, nil
	case "auto":
		return Auto, nil
	}
	return Uniform, fmt.Errorf("planner: unknown mode %q (want uniform|conv-batch|conv-domain|auto)", s)
}

// MarshalText implements encoding.TextMarshaler so a Mode embeds in JSON
// specs as its canonical string. Out-of-range values error rather than
// emitting an unparseable "Mode(n)".
func (m Mode) MarshalText() ([]byte, error) {
	switch m {
	case Uniform, ConvBatch, ConvDomain, Auto:
		return []byte(m.String()), nil
	}
	return nil, fmt.Errorf("planner: cannot marshal invalid mode %d", int(m))
}

// UnmarshalText implements encoding.TextUnmarshaler via ParseMode, so
// String → Parse round-trips through JSON exactly.
func (m *Mode) UnmarshalText(text []byte) error {
	v, err := ParseMode(string(text))
	if err != nil {
		return err
	}
	*m = v
	return nil
}

// Options configures a planning run. The zero value is not useful; use
// DefaultOptions.
type Options struct {
	Machine machine.Machine
	// Topology, when set (non-zero), prices every collective against the
	// hierarchical machine (any number of link levels) and the candidate
	// placements instead of the flat Machine (which then only documents
	// the single-level view). A uniform Topology reproduces the flat
	// Machine's numbers to the last bit.
	Topology machine.Topology
	// Placements constrains the rank-placement search. nil means
	// automatic: row-major only on a flat/uniform topology (placement
	// cannot matter there), both placements on a hierarchical one.
	Placements []grid.Placement
	Compute    compute.Model
	Mode       Mode
	// Overlap applies the Fig. 8 perfect comm/backprop overlap.
	Overlap bool
	// DatasetN, when > 0, also fills the per-epoch time (×⌈N/B⌉).
	DatasetN int
	// MemoryLimitWords, when > 0, rejects grids whose per-process
	// footprint (costmodel.Memory) exceeds the limit — the Section 4
	// remark that "memory consumption optimality might be a legitimate
	// concern depending on the platform and the DNN model size".
	MemoryLimitWords float64
	// AddRedistribution adds the Eq. 6 activation-redistribution cost at
	// every strategy boundary (e.g. the conv→FC transition of Figs. 7 and
	// 10). The paper shows this cost is asymptotically amortized and
	// omits it from the figures; enabling it quantifies the claim.
	AddRedistribution bool
	// MaxPc, when > 0, caps the batch-parallel grid dimension — the
	// Section 4 guidance "if the user decides to limit the maximum
	// allowable batch parallelism in light of accuracy concerns related
	// to large batch sizes": remaining processes must come from the Pr
	// (model/domain) dimension.
	MaxPc int
	// UseTimeline scores each feasible grid with the per-layer
	// event-driven simulator (internal/timeline) under TimelinePolicy
	// instead of the aggregate closed form, making the exposed
	// communication of every candidate grid exact to the per-layer
	// schedule. When false, scoring follows the legacy Overlap flag and
	// planner results are bit-identical to the pre-timeline planner.
	UseTimeline bool
	// TimelinePolicy selects the overlap policy for UseTimeline scoring.
	// The zero value, timeline.PolicyNone, serializes (the Figs. 6/7/9/10
	// baseline); PolicyBackprop generalizes Fig. 8 per layer; PolicyFull
	// models an idealized asynchronous pipeline.
	TimelinePolicy timeline.Policy
	// MicroBatches lists the candidate micro-batch counts M for
	// pipeline-parallel scheduling. Empty means {1}: no pipelining, the
	// single-iteration scoring. Every timeline-scored candidate — any M,
	// any stage count — is priced by costmodel.StageIteration (one stage
	// when S = 1), so entries > 1 require UseTimeline (Optimize rejects
	// them otherwise); candidates that do not divide B or leave a
	// micro-batch thinner than Pc are skipped as infeasible. Each grid
	// reports its best M (Plan.MicroBatch).
	MicroBatches []int
	// Schedule is the pipeline schedule shape used for candidates with
	// M > 1 (timeline.GPipe fill–drain or timeline.OneFOneB). The shape
	// decides the activation stash the memory constraint prices:
	// gpipe stashes all M in-flight micro-batches, 1f1b min(M, S).
	Schedule timeline.Shape
	// StageCounts lists the pipeline stage counts S to search (empty
	// means {1}) and keeps the best. S = 1 is the paper's setting, where
	// every process executes every layer (inter-batch pipelining on one
	// device group when M > 1); each S > 1 partitions the weighted-layer
	// list into S contiguous stages, each pricing only its own layers on
	// its own P/S-sized grid at its own rank offset
	// (costmodel.StageIteration), with the inter-stage activation
	// handoffs priced against the topology level each cut crosses, and
	// co-searches the layer partitions (see MaxPartitions) with the
	// shared per-stage grid over the factorizations of P/S. S values
	// that do not divide P, or exceed the weighted layer count, are
	// reported infeasible. Multi-stage search requires UseTimeline.
	StageCounts []int
	// Partition pins the stage boundaries: cut positions into the
	// weighted-layer list (layer k starts stage when k ∈ Partition),
	// strictly increasing in (0, L). Requires a single searched stage
	// count equal to len(Partition)+1.
	Partition []int
	// MaxPartitions caps the per-stage-count partition enumeration
	// (0 ⇒ 64). Below the cap every contiguous split is priced
	// exhaustively; above it the search falls back to the
	// balanced-compute heuristic and its single-boundary perturbations
	// (stage.Enumerate).
	MaxPartitions int
	// Workers is the number of goroutines evaluating candidates in
	// parallel (0 ⇒ runtime.GOMAXPROCS(0)). Every candidate is a pure
	// function of its inputs and the reduction runs serially in
	// canonical order, so the Result — plans, stats, trajectory — is
	// bit-identical for every worker count, including 1; parallelism
	// changes only wall time.
	Workers int
	// Objective selects what the search minimizes: Iteration (the zero
	// value — the paper's per-iteration objective, provably bit-identical
	// to the pre-objective planner) or TimeToAccuracy, which prices every
	// candidate as Curve.Steps(B) × its iteration seconds — the predicted
	// wall clock of the whole training campaign — and unlocks BatchSizes
	// as the outermost search dimension.
	Objective Objective
	// Curve is the steps-to-target model S(B) the TimeToAccuracy
	// objective prices campaigns with (required and validated there,
	// ignored under Iteration). See internal/convergence for the
	// three-regime shape and per-network presets.
	Curve convergence.Curve
	// BatchSizes lists candidate global batch sizes searched as the
	// outermost dimension under the TimeToAccuracy objective (Optimize
	// rejects it under Iteration, where B is fixed by definition). The
	// base B passed to Optimize is always included — it anchors the
	// pure-batch baseline — and the space is searched sorted ascending
	// with duplicates removed. Empty means {B}.
	BatchSizes []int
	// DisableBounds switches off branch-and-bound pruning. With bounds
	// on (the default), a candidate whose monotone compute lower bound
	// already exceeds the best iteration time of earlier search chunks
	// is counted SearchStats.Bounded and reported in Result.All as an
	// unpriced infeasible placeholder instead of being priced and
	// simulated. The winning plan, the pure-batch baseline, and the
	// improvement trajectory are provably identical either way (a
	// pruned candidate always loses to the plan that set the incumbent);
	// disable to get exhaustive per-candidate pricing in Result.All.
	DisableBounds bool
}

// DefaultOptions returns the paper's Table 1 configuration.
func DefaultOptions() Options {
	return Options{
		Machine:  machine.CoriKNL(),
		Compute:  compute.KNLCaffe(),
		Mode:     Auto,
		DatasetN: 1200000,
	}
}

// topology returns the pricing topology: the explicit hierarchical one
// when set, the flat embedding of Machine otherwise.
func (o Options) topology() machine.Topology {
	if o.Topology.IsZero() {
		return machine.Flat(o.Machine)
	}
	return o.Topology
}

// placements returns the placement search space (see Options.Placements).
func (o Options) placements() []grid.Placement {
	if len(o.Placements) > 0 {
		return o.Placements
	}
	if o.topology().Uniform() {
		return []grid.Placement{grid.RowMajor}
	}
	return grid.Placements()
}

// microBatches returns the micro-batch search space (see
// Options.MicroBatches).
func (o Options) microBatches() []int {
	if len(o.MicroBatches) > 0 {
		return o.MicroBatches
	}
	return []int{1}
}

// stageCounts returns the stage-count search space (see
// Options.StageCounts).
func (o Options) stageCounts() []int {
	if len(o.StageCounts) > 0 {
		return o.StageCounts
	}
	return []int{1}
}

// batchSizes returns the batch search space: the base B alone under the
// Iteration objective (or when BatchSizes is empty), else the sorted,
// deduplicated union of BatchSizes and {B}.
func (o Options) batchSizes(B int) []int {
	if o.Objective != TimeToAccuracy || len(o.BatchSizes) == 0 {
		return []int{B}
	}
	bs := append([]int{B}, o.BatchSizes...)
	sort.Ints(bs)
	out := bs[:1]
	for _, b := range bs[1:] {
		if b != out[len(out)-1] {
			out = append(out, b)
		}
	}
	return out
}

// objectiveCost returns the quantity the search minimizes for a feasible
// plan: iteration seconds under Iteration, the campaign's steps ×
// seconds under TimeToAccuracy. Within one batch size the two orderings
// agree (S(B) is a positive constant there); across batch sizes only the
// TimeToAccuracy cost is comparable.
func (o Options) objectiveCost(p *Plan) float64 {
	if o.Objective == TimeToAccuracy {
		return p.TimeToAccuracySeconds
	}
	return p.IterSeconds
}

// maxPartitions returns the partition-enumeration cap (see
// Options.MaxPartitions).
func (o Options) maxPartitions() int {
	if o.MaxPartitions > 0 {
		return o.MaxPartitions
	}
	return 64
}

// layerComputeCosts returns the per-weighted-layer training FLOPs — the
// grid-independent weights the partition enumeration balances.
func layerComputeCosts(net *nn.Network) []float64 {
	widx := net.WeightedLayers()
	costs := make([]float64, len(widx))
	for k, li := range widx {
		costs[k] = net.Layers[li].TrainFLOPsPerSample()
	}
	return costs
}

// partitions returns the candidate stage partitions for S > 1 stages
// over the per-weighted-layer compute costs: the pinned
// Options.Partition when set, else stage.Enumerate over the costs.
func (o Options) partitions(costs []float64, S int) ([]stage.Partition, error) {
	L := len(costs)
	if S > L {
		return nil, fmt.Errorf("planner: S=%d stages exceed the network's %d weighted layers", S, L)
	}
	if len(o.Partition) > 0 {
		p, err := stage.FromCuts(o.Partition, L)
		if err != nil {
			return nil, err
		}
		if p.Stages() != S {
			return nil, fmt.Errorf("planner: pinned partition has %d stages, searching S=%d", p.Stages(), S)
		}
		return []stage.Partition{p}, nil
	}
	return stage.Enumerate(costs, S, o.maxPartitions()), nil
}

// Plan is one evaluated configuration.
type Plan struct {
	Grid grid.Grid
	// Placement is the rank placement the plan was priced under (only
	// meaningful on a hierarchical Options.Topology; row-major otherwise).
	Placement  grid.Placement
	Mode       Mode
	Assignment costmodel.Assignment
	Breakdown  *costmodel.Breakdown

	// MicroBatch is the micro-batch count the plan was priced at (1 =
	// single-iteration scoring); Schedule is the pipeline shape used
	// when MicroBatch > 1, and BubbleFraction the schedule's compute
	// bubble (0 for single-iteration plans on one stage only when fully
	// hidden — see timeline.Result.BubbleFraction).
	MicroBatch     int
	Schedule       timeline.Shape
	BubbleFraction float64

	// Stages is the pipeline stage count the plan was priced at (1 for
	// classic plans, where Grid spans the whole machine). For Stages >
	// 1, Grid is the shared per-stage grid (P = Stages × Grid.P()),
	// Partition lists the stage-boundary cuts into the weighted-layer
	// list, and PerStage carries the per-stage table — layers, params,
	// compute, collective seconds, activation stash, and the boundary
	// handoff volume with its topology-level attribution.
	Stages    int
	Partition []int
	PerStage  []costmodel.StageCost

	// Batch is the global batch size the plan was priced at: Optimize's
	// B argument unless a TimeToAccuracy search selected another
	// candidate from Options.BatchSizes.
	Batch int
	// StepsToTarget and TimeToAccuracySeconds are the TimeToAccuracy
	// objective's campaign prediction for a feasible plan: the modeled
	// optimization steps to the target accuracy at Batch
	// (Options.Curve.Steps), and steps × IterSeconds — the quantity the
	// search minimizes. Zero under the Iteration objective.
	StepsToTarget         float64
	TimeToAccuracySeconds float64

	CommSeconds  float64 // per-iteration communication
	CompSeconds  float64 // per-iteration computation
	IterSeconds  float64 // combined (with overlap if requested)
	EpochSeconds float64 // IterSeconds × ⌈N/B⌉ (0 when DatasetN unset)
	// MemoryWords is the per-process footprint: costmodel.Memory for
	// closed-form plans; for simulated ones the largest
	// costmodel.MemoryStages estimate (weights of the stage's own layers
	// plus its activation-stash high-water mark).
	MemoryWords float64
	// ExposedCommSeconds is the communication the schedule could not hide
	// behind computation (IterSeconds − CompSeconds, ≥ 0).
	ExposedCommSeconds float64
	// Timeline holds the per-layer schedule when Options.UseTimeline is
	// set (nil otherwise).
	Timeline *timeline.Result

	Feasible bool
	Reason   string // why infeasible, when Feasible is false
}

// String renders a one-line summary.
func (p Plan) String() string {
	if !p.Feasible {
		return fmt.Sprintf("grid %v: infeasible (%s)", p.Grid, p.Reason)
	}
	return fmt.Sprintf("grid %v: iter=%.4gs (comm %.4g + comp %.4g)",
		p.Grid, p.IterSeconds, p.CommSeconds, p.CompSeconds)
}

// structural returns why a (batch, grid, micro-batch) candidate violates
// a structural constraint, or "" when it satisfies all of them:
//   - Pc ≤ B: the batch dimension cannot be split thinner than one sample
//     (the strong-scaling limit of pure batch parallelism, Section 2.4);
//   - ConvBatch needs P ≤ B (conv layers run pure batch over all P);
//   - Domain needs Pr ≤ the spatial height of every domain layer's input
//     (a sample cannot be split into more slabs than it has rows);
//   - Pc ≤ MaxPc when the batch-parallelism cap is set;
//   - M divides B, and the micro-batch B/M still feeds every grid column.
func (o Options) structural(net *nn.Network, B int, g grid.Grid, micro int) string {
	if g.Pc > B {
		return fmt.Sprintf("Pc=%d exceeds batch size %d", g.Pc, B)
	}
	if o.Mode == ConvBatch && g.P() > B {
		return fmt.Sprintf("conv-batch needs P ≤ B, got P=%d > B=%d", g.P(), B)
	}
	if o.Mode == ConvDomain && g.Pr > 1 {
		minH := math.MaxInt
		for _, li := range net.ConvLayers() {
			if h := net.Layers[li].In.H; h < minH {
				minH = h
			}
		}
		if g.Pr > minH {
			return fmt.Sprintf("Pr=%d exceeds smallest conv input height %d", g.Pr, minH)
		}
	}
	if o.MaxPc > 0 && g.Pc > o.MaxPc {
		return fmt.Sprintf("Pc=%d exceeds the batch-parallelism cap %d", g.Pc, o.MaxPc)
	}
	if micro < 1 || B%micro != 0 {
		return fmt.Sprintf("micro-batch count %d does not divide B=%d", micro, B)
	}
	if B/micro < g.Pc {
		return fmt.Sprintf("micro-batch size %d is thinner than Pc=%d", B/micro, g.Pc)
	}
	return ""
}

// assignmentFor builds the Eq. 9 layer assignment for a grid under a mode.
func assignmentFor(net *nn.Network, B int, g grid.Grid, mode Mode, env costmodel.Env) costmodel.Assignment {
	switch mode {
	case Uniform:
		return costmodel.UniformAssignment(net, costmodel.Model)
	case ConvBatch:
		return costmodel.ConvAssignment(net, costmodel.BatchOnly, costmodel.Model)
	case ConvDomain:
		return costmodel.ConvAssignment(net, costmodel.Domain, costmodel.Model)
	case Auto:
		return autoAssignment(net, B, g, env)
	}
	return nil
}

// autoAssignment chooses, per conv layer, the cheapest strategy available
// on grid g by pricing that layer's Eq. 9 term under each eligible
// strategy (costmodel.Env.LayerSeconds; a layer's term depends only on
// its own strategy); FC layers always use Model (domain halos there cost
// the whole activation panel). On a hierarchical topology the choice is
// placement-sensitive: a strategy whose collective groups pack onto
// nodes gets cheaper. With env bound to g (costmodel.Env.Bind) every
// term shares one placement classification.
func autoAssignment(net *nn.Network, B int, g grid.Grid, env costmodel.Env) costmodel.Assignment {
	a := make(costmodel.Assignment)
	for _, li := range net.WeightedLayers() {
		l := &net.Layers[li]
		best := costmodel.Model
		if l.Kind == nn.Conv {
			bestCost := env.LayerSeconds(net, li, B, g, costmodel.Model)
			if g.Pr <= l.In.H {
				if c := env.LayerSeconds(net, li, B, g, costmodel.Domain); c < bestCost {
					best, bestCost = costmodel.Domain, c
				}
			}
			if g.P() <= B {
				if c := env.LayerSeconds(net, li, B, g, costmodel.BatchOnly); c < bestCost {
					best = costmodel.BatchOnly
				}
			}
		}
		a[li] = best
	}
	return a
}

// Evaluate prices one pinned grid g over the rest of the search space —
// placements, stage counts, partitions, micro-batch counts and, under
// the TimeToAccuracy objective, Options.BatchSizes — and returns the best
// plan. It runs Optimize's engine with g in place of the factorizations
// (exhaustively: Evaluate never bounds), so every candidate is priced
// exactly as Optimize prices it. For stage counts S > 1 the grid is the
// shared per-stage grid: the machine has S × g.P() ranks, stage k's block
// starting at rank k·g.P(). Within a batch size the cheapest stage count
// wins on iteration time, across batch sizes on the objective; ties keep
// the earlier candidate (so flat machines deterministically report
// row-major).
func Evaluate(net *nn.Network, B int, g grid.Grid, opts Options) Plan {
	opts.DisableBounds = true
	s := newSearch(net, B, g.P(), opts)
	s.pin = &g
	var st SearchStats
	s.enumerate(&st)
	s.run(&st)
	// One batch size's slots are contiguous: fold its stage counts on
	// iteration time, then the batch sizes on the objective.
	var best Plan
	for i := 0; i < len(s.slots); {
		bb := s.reduce(&s.slots[i])
		j := i + 1
		for ; j < len(s.slots) && s.slots[j].B == s.slots[i].B; j++ {
			if p := s.reduce(&s.slots[j]); p.Feasible && (!bb.Feasible || p.IterSeconds < bb.IterSeconds) {
				bb = p
			}
		}
		if i == 0 || (bb.Feasible && (!best.Feasible || opts.objectiveCost(&bb) < opts.objectiveCost(&best))) {
			best = bb
		}
		i = j
	}
	return best
}

// Result is the output of Optimize.
type Result struct {
	Best Plan
	// All holds every evaluated factorization (feasible or not), ordered
	// by increasing Pr — the bar groups of Figs. 6/7/9/10.
	All []Plan
	// PureBatch is the 1 × P baseline when feasible (the reference the
	// paper's speedup numbers are quoted against).
	PureBatch *Plan
	// Stats is the search telemetry: candidate/pruning counts (exact,
	// deterministic) and the wall-time phase split (varies run to run;
	// compare results with Stats.ZeroTimes applied).
	Stats SearchStats
}

// Speedup returns Best's improvement over the pure-batch baseline in
// total iteration time and in communication time (the bold and
// parenthesized numbers of Figs. 6–7). Returns (0, 0) when pure batch is
// infeasible (the P > B regime).
func (r Result) Speedup() (total, comm float64) {
	if r.PureBatch == nil || !r.PureBatch.Feasible || !r.Best.Feasible {
		return 0, 0
	}
	if r.Best.IterSeconds > 0 {
		total = r.PureBatch.IterSeconds / r.Best.IterSeconds
	}
	if r.Best.CommSeconds > 0 {
		comm = r.PureBatch.CommSeconds / r.Best.CommSeconds
	}
	return total, comm
}

// Optimize searches every stage count S of Options.StageCounts (default
// {1}), every Pr × Pc factorization of the per-stage process count P/S —
// and, on a hierarchical topology, every rank placement of each grid — plus,
// for S > 1, every candidate contiguous layer partition, returning the
// feasible plan with the lowest iteration time. Each entry of Result.All
// is one (stage count, grid) pair priced at its best placement,
// partition, and micro-batch count.
func Optimize(net *nn.Network, B, P int, opts Options) (Result, error) {
	if err := opts.Machine.Validate(); err != nil {
		return Result{}, err
	}
	if !opts.Topology.IsZero() {
		if err := opts.Topology.Validate(); err != nil {
			return Result{}, err
		}
	}
	if B < 1 || P < 1 {
		return Result{}, fmt.Errorf("planner: need B ≥ 1 and P ≥ 1, got B=%d P=%d", B, P)
	}
	for _, m := range opts.MicroBatches {
		if m < 1 {
			return Result{}, fmt.Errorf("planner: micro-batch candidates must be ≥ 1, got %d", m)
		}
		if m > 1 && !opts.UseTimeline {
			return Result{}, fmt.Errorf("planner: micro-batch candidate M=%d needs UseTimeline (pipeline schedules are scored by the timeline simulator)", m)
		}
	}
	counts := opts.stageCounts()
	for _, S := range counts {
		if S < 1 {
			return Result{}, fmt.Errorf("planner: stage counts must be ≥ 1, got %d", S)
		}
		if S > 1 && !opts.UseTimeline {
			return Result{}, fmt.Errorf("planner: S=%d stages need UseTimeline (stage partitions are scored by the timeline simulator)", S)
		}
	}
	if len(opts.Partition) > 0 && (len(counts) != 1 || counts[0] != len(opts.Partition)+1) {
		return Result{}, fmt.Errorf("planner: pinned partition %v implies exactly S=%d, searching %v",
			opts.Partition, len(opts.Partition)+1, counts)
	}
	if opts.Objective != Iteration && opts.Objective != TimeToAccuracy {
		return Result{}, fmt.Errorf("planner: invalid objective %d", int(opts.Objective))
	}
	if len(opts.BatchSizes) > 0 && opts.Objective != TimeToAccuracy {
		return Result{}, fmt.Errorf("planner: BatchSizes search needs Objective=%v (B is fixed by definition under %v)",
			TimeToAccuracy, opts.Objective)
	}
	if opts.Objective == TimeToAccuracy {
		if err := opts.Curve.Validate(); err != nil {
			return Result{}, fmt.Errorf("planner: the %v objective needs a steps-to-target model: %w", TimeToAccuracy, err)
		}
	}
	for _, b := range opts.BatchSizes {
		if b < 1 {
			return Result{}, fmt.Errorf("planner: batch-size candidates must be ≥ 1, got %d", b)
		}
	}
	var res Result
	st := &res.Stats
	wallStart := time.Now()
	s := newSearch(net, B, P, opts)
	s.enumerate(st)
	st.EnumerateSeconds = time.Since(wallStart).Seconds()
	evalStart := time.Now()
	s.run(st)
	evalWall := time.Since(evalStart).Seconds()
	// The price/simulate phase times are summed across workers, so under
	// parallelism their cpu-seconds can exceed the evaluation phase's
	// wall clock; scale them onto it so the attribution identity
	// Enumerate + Price + Simulate ≤ Wall survives any worker count.
	if cpu := st.PriceSeconds + st.SimulateSeconds; cpu > evalWall {
		f := evalWall / cpu
		st.PriceSeconds *= f
		st.SimulateSeconds *= f
	}
	best := math.Inf(1)
	record := func(p Plan) {
		res.All = append(res.All, p)
		if !p.Feasible {
			return
		}
		if c := opts.objectiveCost(&p); c < best {
			best = c
			res.Best = p
			im := Improvement{
				Grid:        p.Grid.String(),
				Placement:   p.Placement,
				MicroBatch:  p.MicroBatch,
				Stages:      p.Stages,
				Partition:   p.Partition,
				IterSeconds: p.IterSeconds,
			}
			if opts.Objective == TimeToAccuracy {
				im.Batch = p.Batch
				im.TTASeconds = p.TimeToAccuracySeconds
			}
			st.Improvements = append(st.Improvements, im)
		}
	}
	for i := range s.slots {
		sl := &s.slots[i]
		p := s.reduce(sl)
		if sl.pure {
			pb := p
			res.PureBatch = &pb
		}
		record(p)
	}
	st.WallSeconds = time.Since(wallStart).Seconds()
	if math.IsInf(best, 1) {
		return res, s.infeasibleError(st)
	}
	// A single (stage count, batch size) emits plans in Factorizations
	// order already — increasing Pr — so only a multi-count or multi-batch
	// sweep needs the re-sort (and the hot single-stage path skips the
	// reflect-based swap entirely).
	if len(counts) > 1 || len(s.batches) > 1 {
		sort.SliceStable(res.All, func(i, j int) bool {
			if res.All[i].Batch != res.All[j].Batch {
				return res.All[i].Batch < res.All[j].Batch
			}
			if res.All[i].Stages != res.All[j].Stages {
				return res.All[i].Stages < res.All[j].Stages
			}
			return res.All[i].Grid.Pr < res.All[j].Grid.Pr
		})
	}
	return res, nil
}

// infeasibleError explains an empty feasible set. When the memory limit
// alone emptied it (no candidate was ever fully priced and at least one
// fell to the limit), the error names the batch-size range tried and the
// tightest per-process footprint that still failed — the two knobs a
// caller can actually act on — instead of a bare "no feasible
// configuration".
func (s *search) infeasibleError(st *SearchStats) error {
	o := s.opts
	span := fmt.Sprintf("B=%d", s.batches[0])
	if len(s.batches) > 1 {
		span = fmt.Sprintf("B=%d..%d (%d batch sizes)", s.batches[0], s.batches[len(s.batches)-1], len(s.batches))
	}
	if st.Priced == 0 && st.MemoryPruned > 0 {
		tightest := math.Inf(1)
		for i := range s.plans {
			p := &s.plans[i]
			// The exact prune condition of the evaluate paths: a footprint
			// was derived and exceeded the limit.
			if !p.Feasible && p.MemoryWords > o.MemoryLimitWords && p.MemoryWords < tightest {
				tightest = p.MemoryWords
			}
		}
		return fmt.Errorf("planner: no feasible configuration for %s P=%d mode=%v: all %d sized candidates exceed the memory limit %.3g words (tightest footprint %.3g words)",
			span, s.P, o.Mode, st.MemoryPruned, o.MemoryLimitWords, tightest)
	}
	return fmt.Errorf("planner: no feasible configuration for %s P=%d mode=%v", span, s.P, o.Mode)
}
