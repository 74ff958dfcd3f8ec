package timeline

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// uniformStages builds S identical compute-only layers, one per stage.
func uniformStages(S int, fwd, bwd float64) []Layer {
	layers := make([]Layer, S)
	for i := range layers {
		layers[i] = Layer{Name: fmt.Sprintf("stage%d", i), FwdComp: fwd, BwdComp: bwd}
	}
	return layers
}

// The gpipe fill–drain bubble on S uniform stages is the closed form
// (S−1)/(M+S−1), and the makespan is (M+S−1)·(f+b).
func TestGPipeBubbleFractionClosedForm(t *testing.T) {
	const f, b = 3e-3, 7e-3
	for _, S := range []int{1, 2, 3, 4, 8} {
		for _, M := range []int{1, 2, 4, 7, 16} {
			layers := uniformStages(S, f, b)
			res, err := SimulatePipeline(layers, PolicyBackprop, Schedule{Shape: GPipe, MicroBatches: M, Stages: S})
			if err != nil {
				t.Fatalf("S=%d M=%d: %v", S, M, err)
			}
			wantSpan := float64(M+S-1) * (f + b)
			if d := math.Abs(res.Makespan - wantSpan); d > 1e-9*wantSpan {
				t.Errorf("S=%d M=%d: makespan %g, want %g", S, M, res.Makespan, wantSpan)
			}
			want := float64(S-1) / float64(M+S-1)
			if d := math.Abs(res.BubbleFraction - want); d > 1e-9 {
				t.Errorf("S=%d M=%d: bubble fraction %g, want %g (Δ %g)", S, M, res.BubbleFraction, want, d)
			}
			if res.MicroBatches != M || res.Stages != S {
				t.Errorf("S=%d M=%d: result echoes M=%d S=%d", S, M, res.MicroBatches, res.Stages)
			}
		}
	}
}

// 1F1B has the same bubble as gpipe on uniform stages — its advantage is
// the activation stash, not the bubble.
func TestOneFOneBBubbleMatchesGPipe(t *testing.T) {
	const f, b = 2e-3, 5e-3
	for _, S := range []int{1, 2, 4} {
		for _, M := range []int{1, 3, 8} {
			layers := uniformStages(S, f, b)
			res, err := SimulatePipeline(layers, PolicyBackprop, Schedule{Shape: OneFOneB, MicroBatches: M, Stages: S})
			if err != nil {
				t.Fatalf("S=%d M=%d: %v", S, M, err)
			}
			want := float64(S-1) / float64(M+S-1)
			if d := math.Abs(res.BubbleFraction - want); d > 1e-9 {
				t.Errorf("S=%d M=%d: 1f1b bubble fraction %g, want %g", S, M, res.BubbleFraction, want)
			}
		}
	}
}

// maxInFlight returns, per stage, the peak number of micro-batches
// between their first forward-compute start and last backward-compute
// end on that stage — the activation stash the schedule forces.
func maxInFlight(res *Result, sched Schedule, L int) []int {
	type window struct{ start, end float64 }
	wins := make(map[int]map[int]*window) // stage → micro → window
	for _, sp := range res.Spans {
		if sp.Resource.Base() != Compute {
			continue
		}
		st := sp.Resource.PipelineStage()
		if wins[st] == nil {
			wins[st] = make(map[int]*window)
		}
		w := wins[st][sp.Micro]
		if w == nil {
			w = &window{start: sp.Start, end: sp.End}
			wins[st][sp.Micro] = w
		}
		if sp.Start < w.start {
			w.start = sp.Start
		}
		if sp.End > w.end {
			w.end = sp.End
		}
	}
	peak := make([]int, sched.Stages)
	for st, micros := range wins {
		// Sweep line: ends sort before starts at the same instant, so a
		// back-to-back retire/admit does not count as overlap.
		type edge struct {
			t     float64
			delta int
		}
		var edges []edge
		for _, w := range micros {
			edges = append(edges, edge{w.start, 1}, edge{w.end, -1})
		}
		sortEdges := func(i, j int) bool {
			if edges[i].t != edges[j].t {
				return edges[i].t < edges[j].t
			}
			return edges[i].delta < edges[j].delta
		}
		sort.Slice(edges, sortEdges)
		n := 0
		for _, e := range edges {
			n += e.delta
			if n > peak[st] {
				peak[st] = n
			}
		}
	}
	return peak
}

// gpipe stashes all M micro-batches on every stage; 1f1b caps stage s at
// S−s in flight.
func TestScheduleStashBounds(t *testing.T) {
	const S, M = 4, 8
	layers := uniformStages(S, 1e-3, 2e-3)
	gp, err := SimulatePipeline(layers, PolicyBackprop, Schedule{Shape: GPipe, MicroBatches: M, Stages: S})
	if err != nil {
		t.Fatal(err)
	}
	for st, n := range maxInFlight(gp, Schedule{Stages: S}, S) {
		if n != M {
			t.Errorf("gpipe stage %d: %d micro-batches in flight, want all %d", st, n, M)
		}
	}
	ob, err := SimulatePipeline(layers, PolicyBackprop, Schedule{Shape: OneFOneB, MicroBatches: M, Stages: S})
	if err != nil {
		t.Fatal(err)
	}
	for st, n := range maxInFlight(ob, Schedule{Stages: S}, S) {
		if want := S - st; n > want {
			t.Errorf("1f1b stage %d: %d micro-batches in flight, want ≤ %d", st, n, want)
		}
	}
}

// The ∆W all-reduce is deferred to the flush: exactly one GradReduce
// event per layer (per link level) regardless of M, carrying the full
// per-layer duration.
func TestPipelineFlushSingleGradReduce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		layers := randomLayers(rng, 1+rng.Intn(8), trial%2 == 0)
		var wantGrad float64
		for _, l := range layers {
			wantGrad += l.GradReduce
		}
		for _, M := range []int{1, 2, 5} {
			res, err := SimulatePipeline(layers, PolicyBackprop, Schedule{Shape: GPipe, MicroBatches: M, Stages: 1})
			if err != nil {
				t.Fatal(err)
			}
			perLayer := make(map[int]int)
			var gotGrad float64
			for _, sp := range res.Spans {
				if sp.Kind == GradReduce {
					perLayer[sp.Layer]++
					gotGrad += sp.Duration
				}
			}
			for li, l := range layers {
				want := 0
				if l.GradReduce > 0 {
					want = 1
					if l.Levels != nil {
						want = 0
						for _, dur := range l.Levels.GradReduce {
							if dur > 0 {
								want++
							}
						}
					}
				}
				if perLayer[li] != want {
					t.Fatalf("trial %d M=%d layer %d: %d GradReduce events, want %d", trial, M, li, perLayer[li], want)
				}
			}
			if d := math.Abs(gotGrad - wantGrad); d > 1e-12 {
				t.Fatalf("trial %d M=%d: total GradReduce time %g, want %g", trial, M, gotGrad, wantGrad)
			}
		}
	}
}

// Inter-batch pipelining (S = 1, M > 1) hides forward communication that
// no intra-iteration policy can: micro-batch m+1's forward GEMMs fill
// the stall behind micro-batch m's blocking all-gather.
func TestPipelineHidesForwardCommunication(t *testing.T) {
	layers := []Layer{
		{Name: "a", FwdComp: 1e-3, BwdComp: 2e-3, AllGather: 4e-3},
		{Name: "b", FwdComp: 1e-3, BwdComp: 2e-3, AllGather: 4e-3},
		{Name: "c", FwdComp: 1e-3, BwdComp: 2e-3},
	}
	single, err := SimulatePipeline(layers, PolicyBackprop, Single())
	if err != nil {
		t.Fatal(err)
	}
	// The same total work split into 4 micro-batches (durations ÷ 4,
	// GradReduce would stay whole but is zero here).
	const M = 4
	micro := make([]Layer, len(layers))
	for i, l := range layers {
		micro[i] = Layer{Name: l.Name, FwdComp: l.FwdComp / M, BwdComp: l.BwdComp / M,
			AllGather: l.AllGather / M}
	}
	pipe, err := SimulatePipeline(micro, PolicyBackprop, Schedule{Shape: GPipe, MicroBatches: M, Stages: 1})
	if err != nil {
		t.Fatal(err)
	}
	if pipe.Makespan >= single.Makespan {
		t.Fatalf("pipelined makespan %g did not improve on single-iteration %g", pipe.Makespan, single.Makespan)
	}
	if pipe.ExposedCommSeconds >= single.ExposedCommSeconds {
		t.Fatalf("pipelined exposure %g did not improve on single-iteration %g",
			pipe.ExposedCommSeconds, single.ExposedCommSeconds)
	}
}

// Per-resource accounting: idle = makespan − busy per lane, and the
// bubble sums the compute lanes' idle time.
func TestPerResourceStats(t *testing.T) {
	layers := uniformStages(3, 1e-3, 2e-3)
	layers[1].ActReduce = 5e-4
	res, err := SimulatePipeline(layers, PolicyBackprop, Schedule{Shape: GPipe, MicroBatches: 4, Stages: 3})
	if err != nil {
		t.Fatal(err)
	}
	var bubble float64
	seen := make(map[Resource]bool)
	for _, rs := range res.PerResource {
		if seen[rs.Resource] {
			t.Fatalf("resource %v listed twice", rs.Resource)
		}
		seen[rs.Resource] = true
		if d := math.Abs(rs.IdleSeconds - (res.Makespan - rs.BusySeconds)); d > 1e-15 {
			t.Errorf("resource %v: idle %g != makespan−busy %g", rs.Resource, rs.IdleSeconds, res.Makespan-rs.BusySeconds)
		}
		if rs.Resource.Base() == Compute {
			bubble += rs.IdleSeconds
		}
	}
	if d := math.Abs(bubble - res.BubbleSeconds); d > 1e-12 {
		t.Errorf("compute idle sum %g != BubbleSeconds %g", bubble, res.BubbleSeconds)
	}
}

// Micro-batch labels reach the event names so Gantt charts stay legible.
func TestPipelineEventNamesCarryMicroLabels(t *testing.T) {
	layers := uniformStages(2, 1e-3, 1e-3)
	res, err := SimulatePipeline(layers, PolicyBackprop, Schedule{Shape: GPipe, MicroBatches: 3, Stages: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("%s %s µ2", FwdComp, "stage1")
	found := false
	for _, sp := range res.Spans {
		label := res.SpanLabel(&sp)
		if label == want {
			found = true
		}
		if !strings.Contains(label, "µ") {
			t.Fatalf("event %q lacks a micro-batch label", label)
		}
	}
	if !found {
		t.Fatalf("no event named %q in the schedule", want)
	}
}

func TestScheduleValidation(t *testing.T) {
	layers := uniformStages(2, 1e-3, 1e-3)
	cases := []Schedule{
		{Shape: GPipe, MicroBatches: 0, Stages: 1},
		{Shape: GPipe, MicroBatches: 1, Stages: 0},
		{Shape: GPipe, MicroBatches: 2, Stages: 3}, // more stages than layers
		{Shape: Shape(99), MicroBatches: 1, Stages: 1},
	}
	for _, sched := range cases {
		if _, err := SimulatePipeline(layers, PolicyBackprop, sched); err == nil {
			t.Errorf("schedule %+v: expected an error", sched)
		}
	}
}

// Table-driven round-trip: String and Parse are inverses for every
// policy and schedule shape, and unknown inputs surface an error naming
// the offending value.
func TestPolicyAndScheduleStringParseRoundTrip(t *testing.T) {
	for _, p := range []Policy{PolicyNone, PolicyBackprop, PolicyFull} {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Errorf("ParsePolicy(%q) = %v, %v; want %v", p.String(), got, err, p)
		}
	}
	for _, s := range []Shape{GPipe, OneFOneB} {
		got, err := ParseSchedule(s.String())
		if err != nil || got != s {
			t.Errorf("ParseSchedule(%q) = %v, %v; want %v", s.String(), got, s, s)
		}
	}
	for _, bad := range []string{"bogus", "2f2b", "pipeline"} {
		if _, err := ParsePolicy(bad); err == nil || !strings.Contains(err.Error(), bad) {
			t.Errorf("ParsePolicy(%q): want error naming the input, got %v", bad, err)
		}
		if _, err := ParseSchedule(bad); err == nil || !strings.Contains(err.Error(), bad) {
			t.Errorf("ParseSchedule(%q): want error naming the input, got %v", bad, err)
		}
	}
}
