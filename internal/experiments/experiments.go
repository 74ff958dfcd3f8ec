// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 3) from this repository's cost model, compute model,
// planner, and executable engines. Each experiment has a structured result
// type plus a Render function producing the text the cmd/dnnsim CLI and
// the bench harness print (README.md, "Tools").
package experiments

import (
	"fmt"
	"strings"

	"dnnparallel/internal/compute"
	"dnnparallel/internal/costmodel"
	"dnnparallel/internal/machine"
	"dnnparallel/internal/nn"
	"dnnparallel/internal/planner"
	"dnnparallel/internal/report"
)

// Setup fixes the Table 1 parameters: network, dataset size, machine, and
// compute model.
type Setup struct {
	Net     *nn.Network
	Machine machine.Machine
	// Topology, when set (non-zero), makes every planner-backed
	// experiment price collectives against the two-level
	// intra-/inter-node machine and search rank placements
	// (dnnsim -ppn/-nodes).
	Topology machine.Topology
	Compute  compute.Model
	DatasetN int
	// Workers is the planner's candidate-evaluation goroutine count
	// (0 = GOMAXPROCS); the search result is identical for any value.
	Workers int
}

// Default returns the paper's Table 1 configuration: AlexNet, ImageNet
// (N = 1.2 M), Cori-KNL.
func Default() Setup {
	return Setup{
		Net:      nn.AlexNet(),
		Machine:  machine.CoriKNL(),
		Compute:  compute.KNLCaffe(),
		DatasetN: 1200000,
	}
}

func (s Setup) options(mode planner.Mode, overlap bool) planner.Options {
	return planner.Options{
		Machine:  s.Machine,
		Topology: s.Topology,
		Compute:  s.Compute,
		Mode:     mode,
		Overlap:  overlap,
		DatasetN: s.DatasetN,
		Workers:  s.Workers,
	}
}

// Table1 renders the fixed simulation parameters (the paper's Table 1).
func (s Setup) Table1() string {
	rows := [][]string{
		{"Network architecture", s.Net.Name,
			fmt.Sprintf("%d conv + %d FC layers", len(s.Net.ConvLayers()), len(s.Net.FCLayers()))},
		{"", "parameters", fmt.Sprintf("%.1fM (paper: 61M grouped)", float64(s.Net.TotalWeights())/1e6)},
		{"Training images", "synthetic ImageNet-like", fmt.Sprintf("N = %d", s.DatasetN)},
		{"", "categories", fmt.Sprintf("%d", s.Net.Output().C)},
		{"Computing platform", s.Machine.Name, fmt.Sprintf("latency α = %.0fµs", s.Machine.Alpha*1e6)},
		{"", "inverse bw", fmt.Sprintf("1/β = %.0f GB/s", s.Machine.BandwidthBytes()/1e9)},
		{"", "peak", fmt.Sprintf("%.1f TFLOP/s model", s.Machine.PeakFlops/1e12)},
	}
	if !s.Topology.IsZero() {
		rows = append(rows, []string{"", "topology",
			fmt.Sprintf("%d levels, %d ranks/node", s.Topology.Depth(), s.Topology.RanksPerNode())})
		for _, lv := range s.Topology.Levels {
			extent := "unbounded"
			if lv.GroupSize > 0 {
				extent = fmt.Sprintf("%d ranks", lv.GroupSize)
			}
			rows = append(rows, []string{"", fmt.Sprintf("%s link", lv.Name),
				fmt.Sprintf("α = %.2gµs, 1/β = %.0f GB/s (%s)",
					lv.Link.Alpha*1e6, lv.Link.BandwidthBytes()/1e9, extent)})
		}
	}
	return report.Table([]string{"Fixed option", "Value", "Relevant parameters"}, rows)
}

// --- Fig. 4: one-epoch time vs batch size on a single KNL -----------------

// Fig4Point is one point of the Fig. 4 curve.
type Fig4Point struct {
	B            int
	IterSeconds  float64
	EpochSeconds float64
	Efficiency   float64
}

// Fig4 sweeps the paper's batch sizes {1, 2, 4, …, 2048}.
func (s Setup) Fig4() []Fig4Point {
	var out []Fig4Point
	for b := 1; b <= 2048; b *= 2 {
		out = append(out, Fig4Point{
			B:            b,
			IterSeconds:  s.Compute.IterTime(s.Net, b),
			EpochSeconds: s.Compute.EpochTime(s.Net, b, s.DatasetN),
			Efficiency:   s.Compute.Efficiency(float64(b)),
		})
	}
	return out
}

// RenderFig4 prints the curve with the best workload marked (the paper
// highlights B = 256).
func RenderFig4(pts []Fig4Point) string {
	best := 0
	for i, p := range pts {
		if p.EpochSeconds < pts[best].EpochSeconds {
			best = i
		}
	}
	rows := make([][]string, len(pts))
	for i, p := range pts {
		note := ""
		if i == best {
			note = "← best workload"
		}
		rows[i] = []string{
			fmt.Sprintf("%d", p.B),
			report.Fs(p.EpochSeconds, 0),
			report.Fs(p.IterSeconds*1e3, 2),
			report.Fs(p.Efficiency*100, 1) + "%",
			note,
		}
	}
	return "Fig. 4 — one-epoch AlexNet training time on a single KNL (modeled)\n" +
		report.Table([]string{"Batch", "Epoch (s)", "Iter (ms)", "GEMM eff", ""}, rows)
}

// --- Eq. 5: model-vs-batch crossover per conv layer ------------------------

// Eq5Row summarizes Eq. 5 for one convolutional layer.
type Eq5Row struct {
	Layer      string
	Kernel     string
	Activation string
	// CrossoverB is the largest batch size at which model parallelism
	// still moves fewer words than batch parallelism.
	CrossoverB int
	RatioAtB8  float64
	RatioAtB64 float64
}

// Eq5 evaluates the crossover for every conv layer of the network.
func (s Setup) Eq5() []Eq5Row {
	var out []Eq5Row
	for _, li := range s.Net.ConvLayers() {
		l := &s.Net.Layers[li]
		out = append(out, Eq5Row{
			Layer:      l.Name,
			Kernel:     fmt.Sprintf("%dx%dx%d", l.KH, l.KW, l.In.C),
			Activation: l.Out.String(),
			CrossoverB: costmodel.ModelBatchCrossoverB(l),
			RatioAtB8:  costmodel.VolumeRatioBatchOverModel(l, 8),
			RatioAtB64: costmodel.VolumeRatioBatchOverModel(l, 64),
		})
	}
	return out
}

// RenderEq5 prints the crossover table (the paper's worked example: 3×3
// filters on 13×13×384 activations favour model parallelism for B ≲ 12).
func RenderEq5(rows []Eq5Row) string {
	tr := make([][]string, len(rows))
	for i, r := range rows {
		tr[i] = []string{
			r.Layer, r.Kernel, r.Activation,
			fmt.Sprintf("%d", r.CrossoverB),
			report.Fs(r.RatioAtB8, 3), report.Fs(r.RatioAtB64, 3),
		}
	}
	return "Eq. 5 — batch/model communication-volume ratio 2|W|/(3·B·d) per conv layer\n" +
		"(ratio > 1 ⇒ model parallelism moves fewer words)\n" +
		report.Table([]string{"Layer", "Filter (k×k×Xc)", "Output (Y)", "Model wins for B ≤", "ratio@B=8", "ratio@B=64"}, tr)
}

// --- Figs. 6–10: scaling studies -------------------------------------------

// ScalingResult is one subfigure: all grid configurations at a fixed
// (P, B), with the best plan and speedups versus pure batch.
type ScalingResult struct {
	P, B         int
	Mode         planner.Mode
	Overlap      bool
	Plans        []planner.Plan
	Best         planner.Plan
	PureBatch    *planner.Plan
	TotalSpeedup float64
	CommSpeedup  float64
}

// scaling evaluates one (P, B) point.
func (s Setup) scaling(mode planner.Mode, overlap bool, B, P int) (ScalingResult, error) {
	res, err := planner.Optimize(s.Net, B, P, s.options(mode, overlap))
	if err != nil {
		return ScalingResult{}, err
	}
	out := ScalingResult{P: P, B: B, Mode: mode, Overlap: overlap,
		Plans: res.All, Best: res.Best, PureBatch: res.PureBatch}
	out.TotalSpeedup, out.CommSpeedup = res.Speedup()
	return out, nil
}

// StrongScaling fixes B and sweeps P — Fig. 6 (Uniform), Fig. 7
// (ConvBatch), Fig. 8 (ConvBatch + overlap).
func (s Setup) StrongScaling(mode planner.Mode, overlap bool, B int, Ps []int) ([]ScalingResult, error) {
	var out []ScalingResult
	for _, p := range Ps {
		r, err := s.scaling(mode, overlap, B, p)
		if err != nil {
			return nil, fmt.Errorf("P=%d: %w", p, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// PB is a weak-scaling point.
type PB struct{ P, B int }

// WeakScaling grows P and B together — Fig. 9.
func (s Setup) WeakScaling(mode planner.Mode, pairs []PB) ([]ScalingResult, error) {
	var out []ScalingResult
	for _, pb := range pairs {
		r, err := s.scaling(mode, false, pb.B, pb.P)
		if err != nil {
			return nil, fmt.Errorf("P=%d B=%d: %w", pb.P, pb.B, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// BeyondBatch fixes B and scales P past it with domain-parallel conv
// layers — Fig. 10.
func (s Setup) BeyondBatch(B int, Ps []int) ([]ScalingResult, error) {
	return s.StrongScaling(planner.ConvDomain, false, B, Ps)
}

// RenderScaling prints one bar chart per (P, B) point: a stacked
// comm+comp bar per grid, the best marked — the textual Figs. 6/7/9/10.
func RenderScaling(title string, results []ScalingResult, perEpoch bool, datasetN int) string {
	var b strings.Builder
	b.WriteString(title + "\n")
	for _, r := range results {
		var bars []report.Bar
		for _, p := range r.Plans {
			if !p.Feasible {
				bars = append(bars, report.Bar{
					Label: p.Grid.String(),
					Note:  "infeasible: " + p.Reason,
				})
				continue
			}
			comm := p.IterSeconds - p.CompSeconds
			comp := p.CompSeconds
			if perEpoch {
				iters := float64(costmodel.EpochIterations(datasetN, r.B))
				comm *= iters
				comp *= iters
			}
			note := ""
			if p.Grid == r.Best.Grid {
				note = "← best"
				if r.TotalSpeedup > 0 {
					note += fmt.Sprintf("  %.1fx total (%.1fx comm) vs pure batch", r.TotalSpeedup, r.CommSpeedup)
				}
			}
			bars = append(bars, report.Bar{
				Label: p.Grid.String(),
				Segments: []report.Segment{
					{Name: "comm", Value: comm},
					{Name: "comp", Value: comp},
				},
				Note: note,
			})
		}
		unit := "s/iter"
		if perEpoch {
			unit = "s/epoch"
		}
		b.WriteString(report.BarChart(
			fmt.Sprintf("\nP=%d, B=%d (grids Pr×Pc; ▓ comm, ░ comp)", r.P, r.B),
			bars, 46, unit))
	}
	return b.String()
}

// ScalingCSV emits the machine-readable form of a scaling study.
func ScalingCSV(results []ScalingResult) string {
	header := []string{"P", "B", "Pr", "Pc", "feasible", "comm_s", "comp_s", "iter_s", "epoch_s", "best"}
	var rows [][]string
	for _, r := range results {
		for _, p := range r.Plans {
			rows = append(rows, []string{
				fmt.Sprintf("%d", r.P), fmt.Sprintf("%d", r.B),
				fmt.Sprintf("%d", p.Grid.Pr), fmt.Sprintf("%d", p.Grid.Pc),
				fmt.Sprintf("%v", p.Feasible),
				report.F(p.CommSeconds), report.F(p.CompSeconds),
				report.F(p.IterSeconds), report.F(p.EpochSeconds),
				fmt.Sprintf("%v", p.Feasible && p.Grid == r.Best.Grid),
			})
		}
	}
	return report.CSV(header, rows)
}

// StandardFig6Ps returns the strong-scaling process counts bracketing the
// paper's P = 8 … 512 sweep.
func StandardFig6Ps() []int { return []int{8, 64, 256, 512} }

// StandardFig9Pairs returns the weak-scaling (P, B) pairs (B/P = 4, ending
// at the paper's quoted P = 512, B = 2048 point and beyond).
func StandardFig9Pairs() []PB {
	return []PB{{32, 128}, {128, 512}, {512, 2048}, {2048, 8192}}
}

// StandardFig10Ps returns the beyond-batch process counts of Fig. 10.
func StandardFig10Ps() []int { return []int{512, 1024, 2048, 4096} }
