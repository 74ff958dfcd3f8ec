package timeline

import (
	"math"
	"testing"
)

// A layer without Levels must schedule all communication on the single
// Network lane; with Levels, only on the per-level lanes.
func TestLevelsSelectLanes(t *testing.T) {
	flat := []Layer{{Name: "a", FwdComp: 1, AllGather: 2, BwdComp: 1, GradReduce: 3}}
	r := mustSimulate(t, flat, PolicyBackprop)
	for _, s := range r.Spans {
		if s.Resource == NetworkLevel(0) || s.Resource == NetworkLevel(1) {
			t.Fatalf("flat layer scheduled %q on %v", r.SpanLabel(&s), s.Resource)
		}
	}

	split := []Layer{{
		Name: "a", FwdComp: 1, BwdComp: 1, AllGather: 2, GradReduce: 3,
		Levels: &LayerLevels{
			AllGather:  []float64{0.5, 1.5},
			GradReduce: []float64{1, 2},
		},
	}}
	r = mustSimulate(t, split, PolicyBackprop)
	counts := map[Resource]int{}
	for _, s := range r.Spans {
		counts[s.Resource]++
		if s.Resource == Network {
			t.Fatalf("split layer scheduled %q on the flat Network lane", r.SpanLabel(&s))
		}
	}
	if counts[NetworkLevel(0)] != 2 || counts[NetworkLevel(1)] != 2 {
		t.Fatalf("lane counts = %v, want 2 on level 0 + 2 on level 1", counts)
	}
	// Busy-time accounting still sees the full communication.
	if !approx(r.CommSeconds, 5, 1e-12) {
		t.Fatalf("CommSeconds = %g, want 5", r.CommSeconds)
	}
}

// Within one collective the inter phase follows the intra phase.
func TestLevelsIntraPrecedesInter(t *testing.T) {
	layers := []Layer{{
		Name: "a", FwdComp: 1, AllGather: 3,
		Levels: &LayerLevels{AllGather: []float64{1, 2}},
	}}
	r := mustSimulate(t, layers, PolicyBackprop)
	var intra, inter Span
	for _, s := range r.Spans {
		if s.Kind != AllGather {
			continue
		}
		if s.Resource == NetworkLevel(0) {
			intra = s
		} else {
			inter = s
		}
	}
	// fwd [0,1], intra ag [1,2], inter ag [2,4].
	if !approx(intra.Start, 1, 1e-12) || !approx(inter.Start, 2, 1e-12) {
		t.Fatalf("phases out of order: intra [%g,%g], inter [%g,%g]",
			intra.Start, intra.End, inter.Start, inter.End)
	}
	if !approx(r.Makespan, 4, 1e-12) {
		t.Fatalf("makespan = %g, want 4 (chained phases)", r.Makespan)
	}
}

// A three-level split chains node → rack → spine in ascending level
// order, skipping levels that carry no time, and each phase runs on its
// own lane.
func TestLevelsThreeLevelChain(t *testing.T) {
	layers := []Layer{{
		Name: "a", FwdComp: 1, AllGather: 6, GradReduce: 2, BwdComp: 1,
		Levels: &LayerLevels{
			Names:      []string{"node", "rack", "spine"},
			AllGather:  []float64{1, 2, 3},
			GradReduce: []float64{0, 0, 2}, // spine-only collective
		},
	}}
	r := mustSimulate(t, layers, PolicyBackprop)
	var ag []Span
	for _, s := range r.Spans {
		if s.Kind == AllGather {
			ag = append(ag, s)
		}
		if s.Kind == GradReduce && s.Resource != NetworkLevel(2) {
			t.Fatalf("spine-only grad reduce landed on %v", s.Resource)
		}
	}
	if len(ag) != 3 {
		t.Fatalf("got %d all-gather phases, want 3", len(ag))
	}
	// fwd [0,1], then the chained phases: [1,2], [2,4], [4,7].
	for i, want := range []struct {
		res        Resource
		start, end float64
	}{
		{NetworkLevel(0), 1, 2}, {NetworkLevel(1), 2, 4}, {NetworkLevel(2), 4, 7},
	} {
		if ag[i].Resource != want.res || !approx(ag[i].Start, want.start, 1e-12) || !approx(ag[i].End, want.end, 1e-12) {
			t.Fatalf("phase %d = %v [%g,%g], want %v [%g,%g]",
				i, ag[i].Resource, ag[i].Start, ag[i].End, want.res, want.start, want.end)
		}
	}
	if want := []string{"node", "rack", "spine"}; len(r.LevelNames) != 3 ||
		r.LevelNames[0] != want[0] || r.LevelNames[1] != want[1] || r.LevelNames[2] != want[2] {
		t.Fatalf("LevelNames = %v, want %v", r.LevelNames, want)
	}
}

// LaneName substitutes topology level names for the positional lane
// spellings, falling back to Resource.String everywhere else.
func TestLaneName(t *testing.T) {
	r := &Result{LevelNames: []string{"node", "rack"}}
	cases := []struct {
		res  Resource
		want string
	}{
		{Compute, "compute"},
		{Network, "network"},
		{NetworkLevel(0), "net-node"},
		{NetworkLevel(1), "net-rack"},
		{NetworkLevel(2), "net-l2"}, // beyond the named levels
		{StageResource(NetworkLevel(1), 3), "net-rack#3"},
		{StageResource(Compute, 2), "compute#2"},
	}
	for _, c := range cases {
		if got := r.LaneName(c.res); got != c.want {
			t.Fatalf("LaneName(%v) = %q, want %q", c.res, got, c.want)
		}
	}
	flat := &Result{}
	if got := flat.LaneName(NetworkLevel(0)); got != "net-l0" {
		t.Fatalf("unnamed LaneName(NetworkLevel(0)) = %q, want net-l0", got)
	}
}

// NetworkLevel rejects levels outside the reserved lane set.
func TestNetworkLevelBounds(t *testing.T) {
	for _, bad := range []int{-1, MaxNetworkLevels} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NetworkLevel(%d): expected panic", bad)
				}
			}()
			NetworkLevel(bad)
		}()
	}
}

// Two lanes genuinely overlap: an intra-only collective and an
// inter-only collective issued together run concurrently, where the
// single-lane model would serialize them.
func TestLanesContendIndependently(t *testing.T) {
	mk := func(split bool) []Layer {
		l := Layer{Name: "a", FwdComp: 0.1, BwdComp: 0.1, ActReduce: 2, GradReduce: 2}
		if split {
			l.Levels = &LayerLevels{
				ActReduce:  []float64{2},    // e.g. a column group packed on one node
				GradReduce: []float64{0, 2}, // a row group scattered across nodes
			}
		}
		return []Layer{l}
	}
	serial := mustSimulate(t, mk(false), PolicyBackprop)
	overlapped := mustSimulate(t, mk(true), PolicyBackprop)
	// Flat: one link carries 4s of backward comm after t=0.1 → 4.1s.
	if !approx(serial.Makespan, 4.1, 1e-12) {
		t.Fatalf("flat makespan = %g, want 4.1", serial.Makespan)
	}
	// Split: the two collectives ride different lanes → 2.1s.
	if !approx(overlapped.Makespan, 2.1, 1e-12) {
		t.Fatalf("two-lane makespan = %g, want 2.1", overlapped.Makespan)
	}
}

// PolicyNone still serializes everything, including split phases: the
// makespan is the sum of all durations.
func TestLevelsPolicyNoneSerializes(t *testing.T) {
	layers := []Layer{{
		Name: "a", FwdComp: 1, BwdComp: 2, AllGather: 3, GradReduce: 1,
		Levels: &LayerLevels{
			AllGather:  []float64{1, 2},
			GradReduce: []float64{0, 1},
		},
	}}
	r := mustSimulate(t, layers, PolicyNone)
	if !approx(r.Makespan, 7, 1e-12) {
		t.Fatalf("PolicyNone makespan = %g, want serialized 7", r.Makespan)
	}
}

// Inconsistent splits fail loudly.
func TestLevelsValidation(t *testing.T) {
	deep := make([]float64, MaxNetworkLevels+1)
	deep[MaxNetworkLevels] = 1
	cases := map[string]Layer{
		"sum mismatch": {Name: "x", AllGather: 3,
			Levels: &LayerLevels{AllGather: []float64{1, 1}}},
		"negative portion": {Name: "x", AllGather: 1,
			Levels: &LayerLevels{AllGather: []float64{2, -1}}},
		"NaN portion": {Name: "x", AllGather: 1,
			Levels: &LayerLevels{AllGather: []float64{math.NaN(), 1}}},
		"split without flat": {Name: "x",
			Levels: &LayerLevels{GradReduce: []float64{1}}},
		"too deep": {Name: "x", AllGather: 1,
			Levels: &LayerLevels{AllGather: deep}},
	}
	for name, layer := range cases {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			_, _ = SimulatePipeline([]Layer{layer}, PolicyBackprop, Single())
		})
	}
}
