package experiments

import (
	"fmt"
	"strings"

	"dnnparallel/internal/grid"
	"dnnparallel/internal/planner"
	"dnnparallel/internal/report"
	"dnnparallel/internal/timeline"
)

// TimelineResult is the per-layer overlap study for one (B, P) point: the
// planner's best grid under event-driven timeline scoring, plus the same
// grid re-simulated under every overlap policy for comparison.
type TimelineResult struct {
	B, P   int
	Policy timeline.Policy
	Result planner.Result
	// ByPolicy holds the best grid's iteration time under each policy
	// (same grid, same assignment — only the overlap treatment varies).
	ByPolicy map[timeline.Policy]float64
}

// TimelineStudy runs the planner with per-layer timeline scoring — the
// replacement for the Fig. 8 one-line idealization — and prices the
// winning grid under all three policies.
func (s Setup) TimelineStudy(mode planner.Mode, pol timeline.Policy, B, P int) (TimelineResult, error) {
	o := s.options(mode, false)
	o.UseTimeline = true
	o.TimelinePolicy = pol
	res, err := planner.Optimize(s.Net, B, P, o)
	if err != nil {
		return TimelineResult{}, err
	}
	tr := TimelineResult{B: B, P: P, Policy: pol, Result: res,
		ByPolicy: map[timeline.Policy]float64{pol: res.Best.IterSeconds}}
	for _, p := range []timeline.Policy{timeline.PolicyNone, timeline.PolicyBackprop, timeline.PolicyFull} {
		if p == pol {
			continue // Optimize already priced the scoring policy
		}
		o.TimelinePolicy = p
		// Pin the placement too: Evaluate would re-search it per policy
		// and could flip to a different placement (hence assignment),
		// breaking the same-configuration contract of the comparison.
		o.Placements = []grid.Placement{res.Best.Placement}
		plan := planner.Evaluate(s.Net, B, res.Best.Grid, o)
		if plan.Feasible {
			tr.ByPolicy[p] = plan.IterSeconds
		}
	}
	return tr, nil
}

// TimelineCSV emits the machine-readable form of one or more timeline
// studies as a single CSV block (one header): per study, one row per
// layer plus a "(drain)" row and a "(total)" row carrying the
// makespan-level numbers.
func TimelineCSV(studies []TimelineResult) string {
	header := []string{"P", "B", "policy", "grid", "layer",
		"comp_s", "comm_s", "fwd_exposed_s", "bwd_exposed_s", "iter_s"}
	var rows [][]string
	for _, tr := range studies {
		best := tr.Result.Best
		row := func(layer string, cells ...string) {
			rows = append(rows, append([]string{
				fmt.Sprintf("%d", tr.P), fmt.Sprintf("%d", tr.B),
				tr.Policy.String(), best.Grid.String(), layer,
			}, cells...))
		}
		if best.Timeline != nil {
			for _, st := range best.Timeline.PerLayer {
				row(st.Name, report.F(st.CompSeconds), report.F(st.CommSeconds),
					report.F(st.FwdExposed), report.F(st.BwdExposed), "")
			}
			row("(drain)", "", "", "", report.F(best.Timeline.DrainSeconds), "")
		}
		row("(total)", report.F(best.CompSeconds), report.F(best.CommSeconds),
			report.F(best.ExposedCommSeconds), "", report.F(best.IterSeconds))
	}
	return report.CSV(header, rows)
}

// GanttLegend names the lanes a schedule actually uses: the flat lanes
// "█ compute, ▒ network" or, on a hierarchical topology, one glyph per
// link level named by the topology ("▓ net-node, ░ net-rack, …").
// Shared by dnnsim and dnnplan.
func GanttLegend(res *timeline.Result) string {
	used := map[timeline.Resource]bool{}
	for _, s := range res.Spans {
		used[s.Resource.Base()] = true
	}
	legend := "█ compute"
	lanes := []timeline.Resource{timeline.Network}
	for i := 0; i < timeline.MaxNetworkLevels; i++ {
		lanes = append(lanes, timeline.NetworkLevel(i))
	}
	for _, l := range lanes {
		if used[l] {
			legend += fmt.Sprintf(", %c %s", report.LaneGlyph(int(l)), res.LaneName(l))
		}
	}
	return legend
}

// GanttSpans converts a simulated schedule into report rows (lane =
// timeline.Resource: compute, network, and the per-level link lanes),
// shared by dnnsim and dnnplan.
func GanttSpans(res *timeline.Result) []report.GanttSpan {
	var spans []report.GanttSpan
	for _, sp := range res.Spans {
		spans = append(spans, report.GanttSpan{
			Label: res.SpanLabel(&sp),
			Lane:  int(sp.Resource),
			Start: sp.Start,
			End:   sp.End,
		})
	}
	return spans
}

// RenderTimeline renders the study: the policy comparison, the per-layer
// compute/communication/exposure table, and the per-event Gantt chart of
// the winning grid's schedule.
func RenderTimeline(tr TimelineResult) string {
	var b strings.Builder
	best := tr.Result.Best
	fmt.Fprintf(&b, "Per-layer timeline — B=%d, P=%d, policy=%v\n", tr.B, tr.P, tr.Policy)
	fmt.Fprintf(&b, "best grid %v: iter=%ss (comm %ss, comp %ss, exposed %ss)\n\n",
		best.Grid, report.F(best.IterSeconds), report.F(best.CommSeconds),
		report.F(best.CompSeconds), report.F(best.ExposedCommSeconds))

	var prow [][]string
	for _, p := range []timeline.Policy{timeline.PolicyNone, timeline.PolicyBackprop, timeline.PolicyFull} {
		if iter, ok := tr.ByPolicy[p]; ok {
			note := ""
			if p == tr.Policy {
				note = "← scoring policy"
			}
			prow = append(prow, []string{p.String(), report.F(iter), note})
		}
	}
	b.WriteString(report.Table([]string{"Policy", "iter s", ""}, prow))
	b.WriteByte('\n')

	if best.Timeline == nil {
		return b.String()
	}
	var lrows [][]string
	for _, st := range best.Timeline.PerLayer {
		lrows = append(lrows, []string{
			st.Name,
			report.F(st.CompSeconds), report.F(st.CommSeconds),
			report.F(st.FwdExposed), report.F(st.BwdExposed),
		})
	}
	lrows = append(lrows, []string{"(drain)", "-", "-", "-", report.F(best.Timeline.DrainSeconds)})
	b.WriteString(report.Table(
		[]string{"Layer", "comp s", "comm s", "fwd exposed", "bwd exposed"}, lrows))
	b.WriteByte('\n')

	b.WriteString(report.Gantt(
		fmt.Sprintf("schedule (%s; makespan %ss + %ss overhead)",
			GanttLegend(best.Timeline),
			report.F(best.Timeline.Makespan), report.F(best.IterSeconds-best.Timeline.Makespan)),
		GanttSpans(best.Timeline), 64))
	return b.String()
}
