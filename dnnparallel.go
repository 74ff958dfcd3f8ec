// Package dnnparallel is the public face of the integrated model, batch,
// and domain parallelism planner (Gholami et al., SPAA 2018): given a
// declarative Scenario — network, machine or hierarchical topology (any
// number of link levels), global batch, and the parallelism search space (per-layer strategy modes,
// rank placements, overlap policy, micro-batch pipeline candidates,
// schedule shape, memory limit) — Plan searches every Pr × Pc
// factorization for the configuration with the lowest predicted
// iteration time, and Simulate prices one pinned configuration with the
// per-layer event-driven overlap timeline.
//
// A Scenario round-trips through JSON bit-exactly once normalized, so
// the same spec drives the Go API, the dnnplan/dnnsim/dnntrain CLIs
// (-config scenario.json), and the dnnserve HTTP planning service.
// All validation happens eagerly: malformed scenarios come back as
// *ValidationError, impossible ones as *InfeasibleError, and no panic
// escapes the public boundary — not by recovery, but because every
// boundary invariant is checked before the internal fast paths run.
//
//	sc := dnnparallel.New("alexnet", 2048, 512)
//	res, err := dnnparallel.Plan(sc)
//	// res.Best.Grid == "32x16", res.SpeedupTotal ≈ 4.5 vs pure batch
package dnnparallel

import (
	"fmt"

	"dnnparallel/internal/grid"
	"dnnparallel/internal/planner"
	"dnnparallel/internal/scenario"
	"dnnparallel/internal/timeline"
)

// Re-exported spec types: the Scenario vocabulary is defined in
// internal/scenario and aliased here so external callers never import an
// internal path.
type (
	// Scenario is the declarative, JSON-round-trippable spec accepted by
	// Plan and Simulate.
	Scenario = scenario.Scenario
	// MachineSpec overrides the flat α–β platform.
	MachineSpec = scenario.MachineSpec
	// TopologySpec selects the hierarchical platform: either the
	// two-level nodes/ranks-per-node sugar or an explicit Levels list.
	TopologySpec = scenario.TopologySpec
	// LevelSpec describes one link level of a hierarchical TopologySpec
	// (innermost first: name, α, bandwidth, ranks per group).
	LevelSpec = scenario.LevelSpec
	// LinkSpec overrides one α–β link level of the two-level sugar.
	LinkSpec = scenario.LinkSpec
	// PipelineSpec configures stage-partitioned pipeline planning.
	PipelineSpec = scenario.PipelineSpec
	// PartitionSpec selects the stage partition: "auto" or explicit cuts.
	PartitionSpec = scenario.PartitionSpec
	// SearchSpec tunes the search engine (worker count, branch-and-bound
	// pruning); it never changes the returned plan, only how fast it is
	// found.
	SearchSpec = scenario.SearchSpec
	// ConvergenceSpec tunes the steps-to-target model S(B) the
	// time-to-accuracy objective prices training campaigns with: a
	// preset curve name and/or explicit {steps_at_b1, critical_b,
	// exponent} regime constants.
	ConvergenceSpec = scenario.ConvergenceSpec
	// ValidationError is returned for every malformed scenario.
	ValidationError = scenario.ValidationError

	// Mode selects how convolutional layers are treated in the search.
	Mode = planner.Mode
	// Objective selects what Plan minimizes: time per iteration or time
	// to a target accuracy.
	Objective = planner.Objective
	// SearchStats is the planner's search telemetry (PlanResult.Stats).
	SearchStats = planner.SearchStats
	// Policy selects the timeline overlap policy.
	Policy = timeline.Policy
	// Shape selects the pipeline schedule shape.
	Shape = timeline.Shape
	// Placement maps logical grid coordinates to machine ranks.
	Placement = grid.Placement
)

// The search-space enum values, re-exported under API names.
const (
	ModeUniform    = planner.Uniform
	ModeConvBatch  = planner.ConvBatch
	ModeConvDomain = planner.ConvDomain
	ModeAuto       = planner.Auto

	// ObjectiveIteration minimizes time per training iteration at the
	// fixed batch size (the paper's objective, and the default);
	// ObjectiveTimeToAccuracy minimizes steps-to-target × iteration
	// seconds and searches Scenario.BatchSizes as an extra dimension.
	ObjectiveIteration      = planner.Iteration
	ObjectiveTimeToAccuracy = planner.TimeToAccuracy

	PolicyNone     = timeline.PolicyNone
	PolicyBackprop = timeline.PolicyBackprop
	PolicyFull     = timeline.PolicyFull

	ScheduleGPipe    = timeline.GPipe
	ScheduleOneFOneB = timeline.OneFOneB

	PlacementRowMajor = grid.RowMajor
	PlacementColMajor = grid.ColMajor
)

// DefaultScenario returns the paper's headline configuration: AlexNet,
// B = 2048, P = 512, ImageNet-sized dataset, auto per-layer strategy on
// the Table 1 Cori-KNL machine.
func DefaultScenario() Scenario { return scenario.Default() }

// Option mutates a Scenario under construction (New).
type Option func(*Scenario)

// New builds a Scenario for a preset network
// (alexnet|vgg16|onebyone|resnet50), a global batch size, and a process
// count, with the paper's defaults (auto mode, ImageNet-sized dataset)
// and any further options applied. The result is normalized; invalid
// combinations surface from Plan/Simulate as *ValidationError.
func New(network string, batch, procs int, opts ...Option) Scenario {
	s := scenario.Default()
	s.Network = network
	s.Batch = batch
	s.Procs = procs
	for _, o := range opts {
		o(&s)
	}
	return s.Normalize()
}

// WithMode selects the conv-layer search mode (default ModeAuto).
func WithMode(m Mode) Option { return func(s *Scenario) { s.Mode = m } }

// WithDataset sets the dataset size N for per-epoch pricing (0 disables).
func WithDataset(n int) Option { return func(s *Scenario) { s.DatasetN = n } }

// WithMachine overrides the flat α–β machine. Mutually exclusive with
// WithTopology.
func WithMachine(m MachineSpec) Option {
	return func(s *Scenario) { s.Machine = &m; s.Topology = nil }
}

// WithTopology prices every collective against the two-level
// intra-/inter-node Cori machine with ranksPerNode processes per node;
// procs is rederived as nodes × ranksPerNode when nodes > 0. Mutually
// exclusive with WithMachine.
func WithTopology(nodes, ranksPerNode int) Option {
	return func(s *Scenario) {
		s.Topology = &TopologySpec{Nodes: nodes, RanksPerNode: ranksPerNode}
		s.Machine = nil
		if nodes > 0 {
			s.Procs = nodes * ranksPerNode
		}
	}
}

// WithTopologySpec installs a fully specified topology (the two-level
// sugar or an explicit Levels list).
func WithTopologySpec(t TopologySpec) Option {
	return func(s *Scenario) { s.Topology = &t; s.Machine = nil }
}

// WithLevels installs an N-level hierarchical topology, innermost level
// first; the outermost level's group size may be 0 (unbounded — implied
// by Procs). Mutually exclusive with WithMachine and WithTopology.
func WithLevels(levels ...LevelSpec) Option {
	return func(s *Scenario) {
		s.Topology = &TopologySpec{Levels: levels}
		s.Machine = nil
	}
}

// WithPlacements pins the rank-placement search space (default:
// automatic — row-major only on flat machines, both on hierarchical ones).
func WithPlacements(pls ...Placement) Option {
	return func(s *Scenario) { s.Placements = pls }
}

// WithOverlap applies the Fig. 8 closed-form comm/backprop overlap.
func WithOverlap() Option { return func(s *Scenario) { s.Overlap = true } }

// WithTimeline scores every candidate with the per-layer event-driven
// simulator under the given overlap policy.
func WithTimeline(p Policy) Option {
	return func(s *Scenario) { s.Timeline = true; s.Policy = p }
}

// WithMicroBatches adds micro-batch pipeline candidates under a schedule
// shape. Candidates > 1 imply timeline scoring (applied by Normalize, so
// the spec cannot be inconsistent).
func WithMicroBatches(shape Shape, ms ...int) Option {
	return func(s *Scenario) { s.Schedule = shape; s.MicroBatches = ms }
}

// WithPipelineStages sets the pipeline stage count S (0 ⇒ 1) — the
// legacy sugar spelling; Normalize canonicalizes it onto the Pipeline
// block. Equivalent to WithStages.
func WithPipelineStages(stages int) Option {
	return func(s *Scenario) { s.PipelineStages = stages }
}

// WithStages splits the network into S contiguous pipeline stages, each
// on its own P/S-sized grid, and co-searches the layer partition with
// the per-stage grids (stage boundaries priced against the topology
// level they cross). S ≤ 1 keeps the single-stage search.
func WithStages(stages int) Option {
	return func(s *Scenario) {
		s.PipelineStages = 0
		s.Pipeline = &PipelineSpec{Stages: stages}
	}
}

// WithPartition pins the stage boundaries: cut positions into the
// weighted-layer list (strictly increasing, in (0, L)). The stage count
// is implied: len(cuts)+1.
func WithPartition(cuts ...int) Option {
	return func(s *Scenario) {
		s.PipelineStages = 0
		s.Pipeline = &PipelineSpec{
			Stages:    len(cuts) + 1,
			Partition: &PartitionSpec{Cuts: cuts},
		}
	}
}

// WithObjective selects what Plan minimizes (default
// ObjectiveIteration). ObjectiveTimeToAccuracy prices every candidate
// as steps-to-target × iteration seconds using the network's preset
// convergence curve unless WithConvergence overrides it.
func WithObjective(o Objective) Option {
	return func(s *Scenario) { s.Objective = o }
}

// WithBatchSizes lists candidate global batch sizes for the
// time-to-accuracy search (the scenario's Batch is always included).
// Implies ObjectiveTimeToAccuracy — batch size is only searchable when
// the objective can trade steps against iteration speed.
func WithBatchSizes(bs ...int) Option {
	return func(s *Scenario) {
		s.Objective = ObjectiveTimeToAccuracy
		s.BatchSizes = bs
	}
}

// WithConvergence tunes the steps-to-target model the time-to-accuracy
// objective prices campaigns with. Implies ObjectiveTimeToAccuracy —
// the iteration objective never reads the model.
func WithConvergence(c ConvergenceSpec) Option {
	return func(s *Scenario) {
		s.Objective = ObjectiveTimeToAccuracy
		s.Convergence = &c
	}
}

// WithMemoryLimit rejects plans whose per-process footprint exceeds the
// limit, in words.
func WithMemoryLimit(words float64) Option {
	return func(s *Scenario) { s.MemoryLimitWords = words }
}

// WithMaxBatchParallel caps the batch-parallel grid dimension Pc.
func WithMaxBatchParallel(pc int) Option {
	return func(s *Scenario) { s.MaxBatchParallel = pc }
}

// WithRedistribution prices the Eq. 6 strategy-boundary activation
// redistribution.
func WithRedistribution() Option {
	return func(s *Scenario) { s.AddRedistribution = true }
}

// WithGrid pins one Pr × Pc factorization: Plan prices only it, and
// Simulate requires it.
func WithGrid(pr, pc int) Option {
	return func(s *Scenario) { s.Grid = grid.Grid{Pr: pr, Pc: pc}.String() }
}

// WithWorkers sets the number of candidate-evaluation goroutines the
// search uses (0 = GOMAXPROCS). The engine is deterministic: the worker
// count never changes the returned plan, only wall time.
func WithWorkers(n int) Option {
	return func(s *Scenario) {
		if s.Search == nil {
			s.Search = &SearchSpec{}
		}
		s.Search.Workers = n
	}
}

// WithoutBounds disables the search's branch-and-bound pruning, so every
// losing candidate carries full pricing detail in the result (the winner
// is identical either way).
func WithoutBounds() Option {
	return func(s *Scenario) {
		if s.Search == nil {
			s.Search = &SearchSpec{}
		}
		off := false
		s.Search.Bounds = &off
	}
}

// LoadScenario reads a scenario JSON file (unknown fields are rejected).
func LoadScenario(path string) (Scenario, error) { return scenario.Load(path) }

// DecodeScenario parses a scenario from JSON bytes (unknown fields are
// rejected).
func DecodeScenario(data []byte) (Scenario, error) { return scenario.Decode(data) }

// machineDesc renders the platform a resolved scenario prices against.
func machineDesc(opts planner.Options) string {
	if !opts.Topology.IsZero() {
		return opts.Topology.String()
	}
	return opts.Machine.String()
}

// Plan validates the scenario and searches its configuration space —
// every Pr × Pc factorization of P (or only the pinned Grid), every rank
// placement on a hierarchical topology, every micro-batch candidate —
// returning the feasible plan with the lowest predicted iteration time.
// Malformed scenarios return *ValidationError; searches with no feasible
// configuration return *InfeasibleError; no panic escapes.
func Plan(s Scenario) (*PlanResult, error) {
	r, err := s.Resolve()
	if err != nil {
		return nil, err
	}
	out := &PlanResult{
		Scenario: s.Normalize(),
		Machine:  machineDesc(r.Options),
		Network:  r.Net.Name,
	}
	if r.Grid != nil {
		p := planner.Evaluate(r.Net, r.Batch, *r.Grid, r.Options)
		if !p.Feasible {
			return nil, &InfeasibleError{Scenario: "grid " + p.Grid.String(), Reason: p.Reason}
		}
		res := planner.Result{Best: p, All: []planner.Plan{p}}
		if p.Grid.IsPureBatch() {
			pb := p
			res.PureBatch = &pb
		}
		fillPlanResult(out, &res, r)
		return out, nil
	}
	res, err := planner.Optimize(r.Net, r.Batch, r.Procs, r.Options)
	if err != nil {
		// Scenario validation already rejected every malformed input the
		// planner checks, so what remains is an empty feasible set.
		desc := fmt.Sprintf("B=%d P=%d", r.Batch, r.Procs)
		if bs := r.Options.BatchSizes; len(bs) > 0 {
			// BatchSizes is normalized (sorted ascending); the search space
			// is its union with the base batch.
			lo, hi := bs[0], bs[len(bs)-1]
			if r.Batch < lo {
				lo = r.Batch
			}
			if r.Batch > hi {
				hi = r.Batch
			}
			desc = fmt.Sprintf("B=%d..%d P=%d", lo, hi, r.Procs)
		}
		return nil, &InfeasibleError{Scenario: desc, Reason: err.Error()}
	}
	fillPlanResult(out, &res, r)
	stats := res.Stats
	out.Stats = &stats
	return out, nil
}

// fillPlanResult translates a planner.Result into the serializable view.
func fillPlanResult(out *PlanResult, res *planner.Result, r scenario.Resolved) {
	out.Raw = res
	out.Best = summarize(res.Best, r.Net)
	for _, p := range res.All {
		out.All = append(out.All, summarize(p, nil))
	}
	if res.PureBatch != nil {
		pb := summarize(*res.PureBatch, nil)
		out.PureBatch = &pb
	}
	out.SpeedupTotal, out.SpeedupComm = res.Speedup()
}

// Simulate validates the scenario and prices its pinned configuration
// (Scenario.Grid is required) with the per-layer event-driven timeline,
// returning the detailed schedule: makespan, exposed communication,
// drain, bubble, and per-layer timings. Timeline scoring is always on —
// Simulate's whole point is the schedule — under the scenario's Policy
// (default: no overlap).
func Simulate(s Scenario) (*SimResult, error) {
	s.Timeline = true
	r, err := s.Resolve()
	if err != nil {
		return nil, err
	}
	if r.Grid == nil {
		return nil, &ValidationError{Field: "grid", Reason: `Simulate needs a pinned grid (e.g. "8x64"); use Plan to search`}
	}
	p := planner.Evaluate(r.Net, r.Batch, *r.Grid, r.Options)
	if !p.Feasible {
		return nil, &InfeasibleError{Scenario: "grid " + p.Grid.String(), Reason: p.Reason}
	}
	out := &SimResult{
		Scenario: s.Normalize(),
		Machine:  machineDesc(r.Options),
		Network:  r.Net.Name,
		Config:   summarize(p, r.Net),
		Raw:      p.Timeline,
	}
	if tl := p.Timeline; tl != nil {
		out.Makespan = tl.Makespan
		out.ExposedCommSeconds = tl.ExposedCommSeconds
		out.DrainSeconds = tl.DrainSeconds
		out.BubbleSeconds = tl.BubbleSeconds
		out.BubbleFraction = tl.BubbleFraction
		out.MicroBatches = tl.MicroBatches
		out.Stages = tl.Stages
		for _, ls := range tl.PerLayer {
			out.PerLayer = append(out.PerLayer, LayerTiming{
				Layer:       ls.Name,
				CompSeconds: ls.CompSeconds,
				CommSeconds: ls.CommSeconds,
				FwdExposed:  ls.FwdExposed,
				BwdExposed:  ls.BwdExposed,
			})
		}
	}
	return out, nil
}
