package planner

import (
	"math"
	"reflect"
	"testing"

	"dnnparallel/internal/machine"
	"dnnparallel/internal/nn"
	"dnnparallel/internal/timeline"
)

// Evaluate runs Optimize's engine on one pinned grid, so for a search
// over a single (batch size, stage count) the pinned plan must be
// exactly Optimize's Result.All entry for that grid — every field,
// pointers followed — on flat, three-level, pipelined, staged, and
// time-to-accuracy setups. Bounds are off so every entry is fully priced.
func TestEvaluateMatchesOptimizeEntry(t *testing.T) {
	flat := DefaultOptions()

	rack := DefaultOptions()
	rack.Topology = rackTaper()

	piped := DefaultOptions()
	piped.UseTimeline = true
	piped.TimelinePolicy = timeline.PolicyBackprop
	piped.MicroBatches = []int{1, 2, 4, 8}
	piped.Schedule = timeline.OneFOneB
	piped.MemoryLimitWords = 3e7

	staged := DefaultOptions()
	staged.UseTimeline = true
	staged.TimelinePolicy = timeline.PolicyBackprop
	staged.StageCounts = []int{2}
	staged.MicroBatches = []int{1, 2, 4}
	staged.Schedule = timeline.OneFOneB
	staged.Topology = machine.CoriKNLNodes(16)

	tta := ttaOptions(t)
	tta.BatchSizes = nil

	for _, c := range []struct {
		name string
		B, P int
		opts Options
	}{
		{"flat", 2048, 512, flat},
		{"3level", 2048, 512, rack},
		{"pipelined", 2048, 256, piped},
		{"staged", 2048, 512, staged},
		{"tta", 2048, 512, tta},
	} {
		t.Run(c.name, func(t *testing.T) {
			net := nn.AlexNet()
			o := c.opts
			o.DisableBounds = true
			res, err := Optimize(net, c.B, c.P, o)
			if err != nil {
				t.Fatal(err)
			}
			for _, want := range res.All {
				if got := Evaluate(net, c.B, want.Grid, o); !reflect.DeepEqual(got, want) {
					t.Fatalf("grid %v: Evaluate differs from Optimize's entry:\n%v\nvs\n%v", want.Grid, got, want)
				}
			}
		})
	}
}

// Single-stage M = 1 timeline plans read their communication and
// computation from the simulated schedule, which sums the same terms in
// a different order than the closed forms: the breakdown's total, the
// GridLayerTimes split plus its residual, and their difference from the
// iteration time. The two must agree to 1e-12 of the iteration time.
func TestSingleStageTimelineTotalsMatchClosedForms(t *testing.T) {
	net := nn.AlexNet()
	for _, topo := range []machine.Topology{{}, machine.CoriKNLNodes(8)} {
		for _, pol := range []timeline.Policy{timeline.PolicyNone, timeline.PolicyBackprop, timeline.PolicyFull} {
			o := timelineOpts(Auto, pol)
			o.Topology = topo
			o.DisableBounds = true
			res, err := Optimize(net, 2048, 512, o)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range res.All {
				if !p.Feasible {
					continue
				}
				times, overhead := o.Compute.GridLayerTimes(net, 2048, p.Grid)
				comp := overhead
				for _, lt := range times {
					comp += lt.Fwd + lt.Bwd
				}
				tol := 1e-12 * p.IterSeconds
				for _, f := range []struct {
					name      string
					got, want float64
				}{
					{"comm", p.CommSeconds, p.Breakdown.TotalSeconds()},
					{"comp", p.CompSeconds, comp},
					{"exposed", p.ExposedCommSeconds, math.Max(0, p.IterSeconds-comp)},
				} {
					if math.Abs(f.got-f.want) > tol {
						t.Fatalf("topology %v policy %v grid %v: %s %.17g, closed form %.17g",
							topo.Depth(), pol, p.Grid, f.name, f.got, f.want)
					}
				}
			}
		}
	}
}
