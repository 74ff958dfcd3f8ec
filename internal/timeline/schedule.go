// Pipeline schedules: the layer list simulated as M micro-batches
// flowing through S pipeline stages. The single iteration is the
// degenerate Single() schedule (M = 1, S = 1), not separate code.
//
// A Schedule instantiates the layer graph once per micro-batch (each
// micro-batch carries 1/M of the global batch, so callers price the
// per-layer durations at micro-batch size B/M), wires three families of
// dependency edges —
//
//   - stage order within a micro-batch: a micro-batch's forward chains
//     through the layers (forward compute for layers 0..L−1, each wired
//     to its communication according to the overlap policy), and its
//     backward chains through them in reverse;
//   - resource contention across micro-batches: each stage owns one
//     compute pipe and one set of network lanes (StageResource), so two
//     micro-batches never compute on the same stage at once while
//     different stages run concurrently;
//   - the ∆W all-reduce deferred to the flush: gradients accumulate
//     locally across micro-batches and the per-layer GradReduce is paid
//     once, issued with the *last* micro-batch's backprop of that layer —
//
// and adds the shape-specific ordering edges of GPipe (fill–drain: a
// stage finishes all M forwards before its first backward) or 1F1B
// (steady state: stage s admits forward micro-batch m only after its
// backward of micro-batch m−(S−s) retired, capping the activation stash
// at S−s in-flight micro-batches).
//
// With M = 1 and S = 1 no pipeline edge fires: the graph is the paper's
// single bulk-synchronous iteration, every event on stage 0's lanes.
package timeline

import (
	"fmt"
	"sort"
	"strings"
)

// Shape selects the pipeline schedule shape.
type Shape int

const (
	// GPipe is the fill–drain schedule: every stage runs all M forward
	// micro-batches, then all M backward micro-batches. On S uniform
	// stages the compute bubble is exactly (S−1)/(M+S−1) of the pipe
	// time; the activation stash peaks at all M micro-batches in flight.
	GPipe Shape = iota
	// OneFOneB is the steady-state interleaving (one-forward-one-backward):
	// after a warm-up of S−s forwards, stage s alternates backward and
	// forward. Same bubble as GPipe on uniform stages, but the stash is
	// capped at min(M, S) in-flight micro-batches.
	OneFOneB
)

func (s Shape) String() string {
	switch s {
	case GPipe:
		return "gpipe"
	case OneFOneB:
		return "1f1b"
	}
	return fmt.Sprintf("Shape(%d)", int(s))
}

// ParseSchedule converts a flag value into a schedule Shape.
func ParseSchedule(s string) (Shape, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "gpipe", "fill-drain", "":
		return GPipe, nil
	case "1f1b", "one-forward-one-backward", "interleaved":
		return OneFOneB, nil
	}
	return GPipe, fmt.Errorf("timeline: unknown schedule shape %q (want gpipe|1f1b)", s)
}

// MarshalText implements encoding.TextMarshaler so a Shape embeds in
// JSON specs as its canonical string. Out-of-range values error rather
// than emitting an unparseable "Shape(n)".
func (s Shape) MarshalText() ([]byte, error) {
	switch s {
	case GPipe, OneFOneB:
		return []byte(s.String()), nil
	}
	return nil, fmt.Errorf("timeline: cannot marshal invalid schedule shape %d", int(s))
}

// UnmarshalText implements encoding.TextUnmarshaler via ParseSchedule,
// so String → Parse round-trips through JSON exactly.
func (s *Shape) UnmarshalText(text []byte) error {
	v, err := ParseSchedule(string(text))
	if err != nil {
		return err
	}
	*s = v
	return nil
}

// Schedule describes a multi-micro-batch pipeline over the layer graph.
type Schedule struct {
	Shape Shape
	// MicroBatches is M ≥ 1: the global batch is split into M
	// micro-batches and the layer durations handed to SimulatePipeline
	// are per-micro-batch (size B/M).
	MicroBatches int
	// Stages is S ≥ 1: the layer list is partitioned into S contiguous
	// stages, each owning its own compute pipe and network lanes. S = 1
	// is inter-batch pipelining on a single device group — micro-batches
	// overlap each other's communication and compute on shared lanes.
	Stages int
	// Partition, when non-empty, lists each stage's first layer index
	// (Partition[0] == 0, strictly increasing, len == Stages) — an
	// explicit contiguous layer→stage assignment, typically a
	// stage.Partition's Starts. When empty the layers fall back to the
	// count-balanced rule (layer i belongs to stage ⌊i·S/L⌋).
	Partition []int
}

// Single is the degenerate schedule: one micro-batch, one stage —
// exactly the single-iteration simulation.
func Single() Schedule { return Schedule{Shape: GPipe, MicroBatches: 1, Stages: 1} }

func (s Schedule) String() string {
	return fmt.Sprintf("%v M=%d S=%d", s.Shape, s.MicroBatches, s.Stages)
}

// Validate checks the schedule against a layer count.
func (s Schedule) Validate(numLayers int) error {
	if s.Shape != GPipe && s.Shape != OneFOneB {
		return fmt.Errorf("timeline: unknown schedule shape %v", s.Shape)
	}
	if s.MicroBatches < 1 {
		return fmt.Errorf("timeline: schedule needs ≥ 1 micro-batch, got %d", s.MicroBatches)
	}
	if s.Stages < 1 {
		return fmt.Errorf("timeline: schedule needs ≥ 1 stage, got %d", s.Stages)
	}
	if numLayers > 0 && s.Stages > numLayers {
		return fmt.Errorf("timeline: %d stages exceed %d layers (a stage cannot be empty)", s.Stages, numLayers)
	}
	if len(s.Partition) > 0 {
		if len(s.Partition) != s.Stages {
			return fmt.Errorf("timeline: partition %v has %d stages, schedule says %d", s.Partition, len(s.Partition), s.Stages)
		}
		if s.Partition[0] != 0 {
			return fmt.Errorf("timeline: partition must start at layer 0, got %v", s.Partition)
		}
		for k := 1; k < len(s.Partition); k++ {
			if s.Partition[k] <= s.Partition[k-1] {
				return fmt.Errorf("timeline: partition starts must be strictly increasing, got %v", s.Partition)
			}
			if numLayers > 0 && s.Partition[k] >= numLayers {
				return fmt.Errorf("timeline: partition start %d outside the %d-layer list", s.Partition[k], numLayers)
			}
		}
	}
	return nil
}

// stageOf returns the pipeline stage of layer i out of L: the owning
// range of the explicit Partition when one is set, otherwise the
// contiguous count-balanced rule (stage k covers layers
// ⌈kL/S⌉ … ⌈(k+1)L/S⌉−1).
func (s Schedule) stageOf(i, L int) int {
	if len(s.Partition) > 0 {
		return sort.SearchInts(s.Partition, i+1) - 1
	}
	return i * s.Stages / L
}

// SimulatePipeline builds the multi-iteration event graph for the given
// overlap policy and schedule and runs it. Layer durations are
// per-micro-batch; negative or NaN durations panic, an invalid schedule
// returns an error, and an empty layer list returns a zero Result.
func SimulatePipeline(layers []Layer, policy Policy, sched Schedule) (*Result, error) {
	if err := sched.Validate(len(layers)); err != nil {
		return nil, err
	}
	for i := range layers {
		layers[i].validate(i)
	}
	if len(layers) == 0 {
		return &Result{Policy: policy, MicroBatches: sched.MicroBatches, Stages: sched.Stages}, nil
	}
	events := buildPipelineEvents(layers, policy, sched)
	spans, err := Simulate(events)
	if err != nil {
		return nil, err
	}
	return summarize(layers, policy, spans, sched.MicroBatches, sched.Stages), nil
}

// buildPipelineEvents lays out M micro-batch passes over the layer graph,
// each with the per-micro-batch policy semantics, plus the pipeline edges
// described in the comment at the top of this file.
//
// Dependencies are passed around as *handles*: a handle is the list of
// event IDs whose completion stands for the completion of a (possibly
// zero-duration) step. A zero-duration step emits no event and its handle
// is simply its own dependency handle, so prerequisites forward
// transitively through skipped events instead of being dropped.
func buildPipelineEvents(layers []Layer, policy Policy, sched Schedule) []Event {
	L := len(layers)
	M := sched.MicroBatches
	S := sched.Stages
	stage := func(i int) int { return sched.stageOf(i, L) }
	// stageFirst/stageLast bound each stage's layer range: the stage's
	// first layer is where its forward pass enters (and its backward
	// pass exits), the last layer the reverse.
	stageFirst := make([]int, S)
	stageLast := make([]int, S)
	for k := range stageFirst {
		stageFirst[k] = -1
	}
	for i := 0; i < L; i++ {
		k := stage(i)
		if stageFirst[k] < 0 {
			stageFirst[k] = i
		}
		stageLast[k] = i
	}

	var events []Event
	lastReal := -1 // most recent real event, for PolicyNone serialization
	add := func(micro, layer int, kind Kind, res Resource, dur float64, deps []int) []int {
		if dur == 0 {
			return deps
		}
		d := append([]int(nil), deps...)
		if policy == PolicyNone && lastReal >= 0 {
			d = append(d, lastReal)
		}
		id := len(events)
		events = append(events, Event{
			ID:       id,
			Layer:    layer,
			Micro:    micro,
			Kind:     kind,
			Resource: res,
			Duration: dur,
			Deps:     d,
		})
		lastReal = id
		return []int{id}
	}
	union := func(hs ...[]int) []int {
		var out []int
		for _, h := range hs {
			out = append(out, h...)
		}
		return out
	}
	// xfer emits one inter-stage handoff on the receiving stage's link
	// lane (the boundary's own level lane when the layer is priced
	// hierarchically). It reports whether an event was emitted so callers
	// leave dependency handles untouched for zero-duration handoffs —
	// keeping partitioned schedules with free boundaries bit-identical to
	// unpartitioned ones.
	xfer := func(micro, layer int, kind Kind, toStage int, deps []int) ([]int, bool) {
		l := layers[layer]
		dur := l.FwdXfer
		if kind == BwdXfer {
			dur = l.BwdXfer
		}
		if dur == 0 {
			return nil, false
		}
		res := StageResource(Network, toStage)
		if l.Levels != nil {
			res = StageResource(NetworkLevel(l.XferLevel), toStage)
		}
		return add(micro, layer, kind, res, dur, deps), true
	}
	// comm emits one communication step on the layer's stage lanes: a
	// single Network event on a flat layer, or a chain of per-level lane
	// events when the layer carries a per-level split — each level's
	// phase consumes the previous active level's result (the
	// hierarchical collective ascends the topology), so level i+1's
	// event depends on level i's. The returned handle completes when the
	// whole step does.
	comm := func(micro, layer int, kind Kind, deps []int) []int {
		l := layers[layer]
		st := stage(layer)
		if l.Levels == nil {
			return add(micro, layer, kind, StageResource(Network, st), l.commDur(kind), deps)
		}
		cur := deps
		var done []int
		for lvl, dur := range l.Levels.get(kind) {
			if dur == 0 {
				continue
			}
			ev := add(micro, layer, kind, StageResource(NetworkLevel(lvl), st), dur, cur)
			done = union(done, ev)
			cur = union(deps, ev)
		}
		if done == nil {
			return deps
		}
		return done
	}

	fwdDone := make([][][]int, M) // [micro][layer] forward-compute handle
	agDone := make([][][]int, M)  // [micro][layer] all-gather handle
	bwdDone := make([][][]int, M) // [micro][layer] backward-compute handle

	// emitForward lays out micro-batch m's forward pass.
	emitForward := func(m int) {
		fwdDone[m] = make([][]int, L)
		agDone[m] = make([][]int, L)
		for i := 0; i < L; i++ {
			var deps []int
			if i > 0 {
				deps = union(deps, fwdDone[m][i-1])
				if policy != PolicyFull {
					deps = union(deps, agDone[m][i-1]) // all-gather blocks the next GEMM
				}
			}
			if sched.Shape == OneFOneB && i == stageFirst[stage(i)] {
				// Steady-state stash cap: stage s admits forward m only
				// after retiring backward m−(S−s) — the handle exists
				// because 1F1B emission alternates F_m, B_m below.
				if k := m - (S - stage(i)); k >= 0 {
					deps = union(deps, bwdDone[k][i])
				}
			}
			if st := stage(i); i == stageFirst[st] && st > 0 {
				// Pipeline boundary: the layer's input activations arrive
				// from the previous stage. The handoff is a true data
				// dependency — it gates this layer's forward under every
				// policy, unlike the collectives PolicyFull un-blocks.
				if ev, ok := xfer(m, i, FwdXfer, st, deps); ok {
					deps = union(deps, ev)
				}
			}
			halo := comm(m, i, FwdHalo, deps)
			fdeps := deps
			if policy != PolicyFull {
				fdeps = union(deps, halo) // input halo blocks this GEMM
			}
			fwdDone[m][i] = add(m, i, FwdComp, StageResource(Compute, stage(i)), layers[i].FwdComp, fdeps)
			agDone[m][i] = comm(m, i, AllGather, fwdDone[m][i])
		}
	}

	// emitBackward lays out micro-batch m's backward pass, last layer
	// first. The ∆W all-reduce is deferred to the flush: gradients
	// accumulate locally and the collective is issued once, streaming
	// with the last micro-batch's backprop of the layer.
	emitBackward := func(m int) {
		bwdDone[m] = make([][]int, L)
		var prevBwd []int
		for i := L - 1; i >= 0; i-- {
			var deps []int
			if i < L-1 {
				deps = prevBwd
			} else {
				// The loss needs the micro-batch's last forward GEMM and
				// (except under PolicyFull) its gathered activations.
				deps = fwdDone[m][L-1]
				if policy != PolicyFull {
					deps = union(fwdDone[m][L-1], agDone[m][L-1])
				}
			}
			if M > 1 && sched.Shape == GPipe && i == stageLast[stage(i)] {
				// Fill–drain: the stage's backward work starts only after
				// the stage flushed all M forwards.
				deps = union(deps, fwdDone[M-1][i])
			}
			bwd := add(m, i, BwdComp, StageResource(Compute, stage(i)), layers[i].BwdComp, deps)
			// Backward communication is issued at the start of the layer's
			// backprop (gradient chunks stream out as they are produced),
			// the per-layer form of the Fig. 8 idealization. Under
			// PolicyNone the add() serialization reinstates strict order.
			commDeps := deps
			if policy == PolicyNone {
				commDeps = bwd
			}
			comm(m, i, BwdHalo, commDeps)
			comm(m, i, ActReduce, commDeps)
			if m == M-1 {
				comm(m, i, GradReduce, commDeps)
			}
			prevBwd = bwd
			if st := stage(i); i == stageFirst[st] && st > 0 {
				// Pipeline boundary: ∆X returns to the previous stage.
				// Like the other backward communication it streams with the
				// producing backprop, but the downstream stage's next
				// backprop genuinely needs the received gradient, so the
				// handoff joins the backward chain handle.
				if ev, ok := xfer(m, i, BwdXfer, st-1, commDeps); ok {
					prevBwd = union(bwd, ev)
				}
			}
			bwdDone[m][i] = bwd
		}
	}

	// Emission order matters for the handles each pass may reference:
	// GPipe's backward flush edge needs the last micro-batch's forward
	// handles (all forwards first), while 1F1B's stash edge needs earlier
	// micro-batches' backward handles (alternate F_m, B_m). Both orders
	// reduce to F_0, B_0 at M = 1 — the single-iteration order.
	if sched.Shape == OneFOneB {
		for m := 0; m < M; m++ {
			emitForward(m)
			emitBackward(m)
		}
	} else {
		for m := 0; m < M; m++ {
			emitForward(m)
		}
		for m := 0; m < M; m++ {
			emitBackward(m)
		}
	}
	return events
}
