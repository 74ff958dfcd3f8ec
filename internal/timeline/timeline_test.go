package timeline

import (
	"math"
	"testing"
)

func mustSimulate(t *testing.T, layers []Layer, p Policy) *Result {
	t.Helper()
	r, err := SimulatePipeline(layers, p, Single())
	if err != nil {
		t.Fatalf("SimulatePipeline(%v, Single()): %v", p, err)
	}
	return r
}

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// Under PolicyNone the makespan is exactly the sum of every duration —
// the serialized closed-form baseline.
func TestPolicyNoneSerializes(t *testing.T) {
	layers := []Layer{
		{Name: "conv1", FwdComp: 1, BwdComp: 2, AllGather: 0.5, ActReduce: 0.25, GradReduce: 0.75},
		{Name: "fc1", FwdComp: 3, BwdComp: 6, AllGather: 1.5, FwdHalo: 0.1, ActReduce: 0.5, GradReduce: 0.25, BwdHalo: 0.2},
	}
	var want float64
	for _, l := range layers {
		want += l.CompSeconds() + l.CommSeconds()
	}
	r := mustSimulate(t, layers, PolicyNone)
	if !approx(r.Makespan, want, 1e-12) {
		t.Fatalf("PolicyNone makespan = %g, want serialized sum %g", r.Makespan, want)
	}
	if !approx(r.ExposedCommSeconds, r.CommSeconds, 1e-12) {
		t.Fatalf("PolicyNone exposes all comm: exposed %g, comm %g", r.ExposedCommSeconds, r.CommSeconds)
	}
	// No two spans overlap at all under full serialization.
	for i := 1; i < len(r.Spans); i++ {
		if r.Spans[i].Start < r.Spans[i-1].End-1e-12 {
			t.Fatalf("PolicyNone overlap: %q [%g,%g] vs %q [%g,%g]",
				r.SpanLabel(&r.Spans[i-1]), r.Spans[i-1].Start, r.Spans[i-1].End,
				r.SpanLabel(&r.Spans[i]), r.Spans[i].Start, r.Spans[i].End)
		}
	}
}

// A single aggregate layer under PolicyBackprop reproduces the Fig. 8
// closed form: comp + fwdComm + max(0, bwdComm − bwdComp).
func TestBackpropMatchesClosedFormAggregate(t *testing.T) {
	cases := []struct {
		name             string
		fwdComp, bwdComp float64
		fwdComm, bwdComm float64
	}{
		{"compute-dominated", 1, 2, 0.3, 0.9},
		{"comm-dominated", 0.1, 0.2, 1.5, 4.0},
		{"zero compute", 0, 0, 0.5, 1.25},
		{"zero comm", 1, 2, 0, 0},
		{"balanced", 1, 2, 0.5, 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			layers := []Layer{{
				Name: "agg", FwdComp: c.fwdComp, BwdComp: c.bwdComp,
				AllGather: c.fwdComm, ActReduce: c.bwdComm,
			}}
			r := mustSimulate(t, layers, PolicyBackprop)
			want := c.fwdComp + c.bwdComp + c.fwdComm + math.Max(0, c.bwdComm-c.bwdComp)
			if !approx(r.Makespan, want, 1e-12) {
				t.Fatalf("makespan = %g, want closed form %g", r.Makespan, want)
			}
		})
	}
}

// Forward all-gathers block the next layer's GEMM under PolicyBackprop:
// forward time serializes layer by layer even though backward hides.
func TestBackpropForwardBlocks(t *testing.T) {
	layers := []Layer{
		{Name: "l1", FwdComp: 1, AllGather: 2, BwdComp: 10},
		{Name: "l2", FwdComp: 1, AllGather: 2, BwdComp: 10},
	}
	r := mustSimulate(t, layers, PolicyBackprop)
	// fwd l1 [0,1], ag l1 [1,3], fwd l2 [3,4], ag l2 [4,6], bwd l2 [6,16], bwd l1 [16,26]
	if !approx(r.Makespan, 26, 1e-12) {
		t.Fatalf("makespan = %g, want 26 (forward all-gathers exposed)", r.Makespan)
	}
	var l2 Span
	for _, s := range r.Spans {
		if s.Kind == FwdComp && s.Layer == 1 {
			l2 = s
		}
	}
	if !approx(l2.Start, 3, 1e-12) {
		t.Fatalf("fwd l2 starts at %g, want 3 (after l1's all-gather)", l2.Start)
	}
	if !approx(r.PerLayer[1].FwdExposed, 2, 1e-12) {
		t.Fatalf("l2 forward exposure = %g, want 2", r.PerLayer[1].FwdExposed)
	}
}

// PolicyFull removes the forward barrier: the compute pipe never stalls
// and the makespan is max(compute chain, network drain).
func TestFullOverlapsForward(t *testing.T) {
	layers := []Layer{
		{Name: "l1", FwdComp: 1, AllGather: 2, BwdComp: 2, GradReduce: 1},
		{Name: "l2", FwdComp: 1, AllGather: 2, BwdComp: 2, GradReduce: 1},
	}
	r := mustSimulate(t, layers, PolicyFull)
	comp := 0.0
	for _, l := range layers {
		comp += l.CompSeconds()
	}
	if r.Makespan < comp-1e-12 {
		t.Fatalf("makespan %g below compute lower bound %g", r.Makespan, comp)
	}
	// Compute is 6s; comm is 6s but the first all-gather can only start at
	// t=1, so the link finishes at 7 — one second exposed, none of it a
	// forward stall.
	if !approx(r.Makespan, 7, 1e-12) {
		t.Fatalf("makespan = %g, want 7", r.Makespan)
	}
	for _, st := range r.PerLayer {
		if st.FwdExposed != 0 {
			t.Fatalf("layer %s has forward stall %g under PolicyFull", st.Name, st.FwdExposed)
		}
	}
}

// Small per-rank work serializes: when every layer's backward comm
// exceeds its backward compute, the link backlog drains after the last
// GEMM — the per-layer analogue of the paper's large-P regime.
func TestBacklogDrains(t *testing.T) {
	var layers []Layer
	for i := 0; i < 8; i++ {
		layers = append(layers, Layer{Name: "l", BwdComp: 0.1, FwdComp: 0.05, ActReduce: 0.3, GradReduce: 0.3})
	}
	r := mustSimulate(t, layers, PolicyBackprop)
	comp := 8 * 0.15
	bwdComm := 8 * 0.6
	// Backward comm starts when backprop starts (t = 0.4) and the link is
	// the bottleneck from then on.
	want := 8*0.05 + bwdComm
	if !approx(r.Makespan, want, 1e-9) {
		t.Fatalf("makespan = %g, want %g (network-bound)", r.Makespan, want)
	}
	if r.DrainSeconds <= 0 {
		t.Fatalf("expected a positive end-of-iteration drain, got %g", r.DrainSeconds)
	}
	if r.ExposedCommSeconds <= bwdComm-comp-1e-9 {
		t.Fatalf("exposure %g should exceed the aggregate bound %g in the serialized regime",
			r.ExposedCommSeconds, bwdComm-comp)
	}
}

func TestSingleLayerNetwork(t *testing.T) {
	layers := []Layer{{Name: "only", FwdComp: 2, BwdComp: 4, AllGather: 1, GradReduce: 3}}
	r := mustSimulate(t, layers, PolicyBackprop)
	// fwd [0,2], ag [2,3], bwd [3,7], ∆W issued at t=3 on the link [3,6].
	if !approx(r.Makespan, 7, 1e-12) {
		t.Fatalf("makespan = %g, want 7 (comm fully hidden)", r.Makespan)
	}
	if !approx(r.ExposedCommSeconds, 1, 1e-12) {
		t.Fatalf("exposed = %g, want 1 (just the all-gather)", r.ExposedCommSeconds)
	}
}

// TestZeroDurationForwardsDeps: a comm-only layer (the one-sided input
// TimelineLayers documents) must not let its communication jump ahead of
// the transitive prerequisites of its skipped compute events.
func TestZeroDurationForwardsDeps(t *testing.T) {
	layers := []Layer{
		{Name: "a", FwdComp: 1},
		{Name: "b", AllGather: 1}, // no compute: FwdComp event is skipped
		{Name: "c", FwdComp: 1},
	}
	r := mustSimulate(t, layers, PolicyBackprop)
	for _, s := range r.Spans {
		if s.Kind == AllGather && s.Start < 1-1e-12 {
			t.Fatalf("b's all-gather started at %g, before a's forward GEMM finished", s.Start)
		}
	}
	// fwd a [0,1], ag b [1,2] (blocks c), fwd c [2,3].
	if !approx(r.Makespan, 3, 1e-12) {
		t.Fatalf("makespan = %g, want 3", r.Makespan)
	}
	// A backward-comm-only layer inherits the backward chain position too.
	layers = []Layer{
		{Name: "a", FwdComp: 1, BwdComp: 1, GradReduce: 0.5},
		{Name: "b", GradReduce: 4}, // comm-only
		{Name: "c", FwdComp: 1, BwdComp: 1},
	}
	r = mustSimulate(t, layers, PolicyBackprop)
	for _, s := range r.Spans {
		if s.Kind == GradReduce && s.Layer == 1 && s.Start < 3-1e-12 {
			t.Fatalf("b's ∆W all-reduce started at %g, before c's backprop position (t=3)", s.Start)
		}
	}
}

func TestEmptyAndZeroLayers(t *testing.T) {
	r := mustSimulate(t, nil, PolicyBackprop)
	if r.Makespan != 0 || len(r.Spans) != 0 {
		t.Fatalf("empty network should be a zero result, got %+v", r)
	}
	r = mustSimulate(t, []Layer{{Name: "zero"}}, PolicyNone)
	if r.Makespan != 0 || len(r.Spans) != 0 {
		t.Fatalf("all-zero layer should emit no events, got %+v", r)
	}
}

func TestInvalidDurationsPanic(t *testing.T) {
	cases := map[string][]Layer{
		"negative comp": {{Name: "x", FwdComp: -1}},
		"negative comm": {{Name: "x", GradReduce: -0.5}},
		"NaN":           {{Name: "x", BwdComp: math.NaN()}},
	}
	for name, layers := range cases {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			_, _ = SimulatePipeline(layers, PolicyBackprop, Single())
		})
	}
}

func TestParsePolicy(t *testing.T) {
	for s, want := range map[string]Policy{
		"none": PolicyNone, "serial": PolicyNone, "": PolicyNone,
		"backprop": PolicyBackprop, "overlap": PolicyBackprop,
		"full": PolicyFull, "async": PolicyFull, "FULL": PolicyFull,
	} {
		got, err := ParsePolicy(s)
		if err != nil || got != want {
			t.Fatalf("ParsePolicy(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Fatal("ParsePolicy(bogus) should error")
	}
}

// Spans come back in start order and resources never double-book.
func TestScheduleWellFormed(t *testing.T) {
	layers := []Layer{
		{Name: "a", FwdComp: 0.3, BwdComp: 0.7, AllGather: 0.2, ActReduce: 0.4, GradReduce: 0.1},
		{Name: "b", FwdComp: 0.5, BwdComp: 1.1, AllGather: 0.6, FwdHalo: 0.05, ActReduce: 0.2, GradReduce: 0.3, BwdHalo: 0.1},
		{Name: "c", FwdComp: 0.2, BwdComp: 0.4, AllGather: 0.1, GradReduce: 0.9},
	}
	for _, p := range []Policy{PolicyNone, PolicyBackprop, PolicyFull} {
		r := mustSimulate(t, layers, p)
		last := map[Resource]float64{}
		prevStart := math.Inf(-1)
		for _, s := range r.Spans {
			if s.Start < prevStart-1e-12 {
				t.Fatalf("%v: spans out of start order", p)
			}
			prevStart = s.Start
			if s.Start < last[s.Resource]-1e-12 {
				t.Fatalf("%v: resource %v double-booked at %g", p, s.Resource, s.Start)
			}
			last[s.Resource] = s.End
		}
		// Conservation: busy time per resource adds up.
		var comm, comp float64
		for _, l := range layers {
			comm += l.CommSeconds()
			comp += l.CompSeconds()
		}
		if !approx(r.CommSeconds, comm, 1e-12) || !approx(r.ComputeSeconds, comp, 1e-12) {
			t.Fatalf("%v: busy-time conservation violated", p)
		}
		if r.Makespan < math.Max(comm, comp)-1e-12 {
			t.Fatalf("%v: makespan %g below resource lower bound", p, r.Makespan)
		}
	}
}
