package dnnparallel

// Ablation benchmarks for the cost model's design choices and the
// Section 4 / Limitations discussion items:
//
//   - BenchmarkMemoryVsGrid          — the model-replication / data-replication
//     trade-off of the 1.5D layout (Section 4 memory discussion);
//   - BenchmarkEq6RedistributionAblation — is the strategy-switch
//     redistribution really amortized?
//   - BenchmarkAlphaBetaSensitivity  — the Limitations remark that
//     interconnect effects "can be approximated by adjusting the latency
//     and bandwidth terms": how the best grid moves across machines;
//   - BenchmarkConvStrategyAblation  — per-conv-layer strategy choice
//     (uniform vs batch-only vs domain vs auto) at the paper's headline
//     configuration.

import (
	"testing"

	"dnnparallel/internal/costmodel"
	"dnnparallel/internal/experiments"
	"dnnparallel/internal/grid"
	"dnnparallel/internal/nn"
	"dnnparallel/internal/planner"
)

func BenchmarkMemoryVsGrid(b *testing.B) {
	net := nn.AlexNet()
	var pure, mid, model costmodel.MemoryEstimate
	for i := 0; i < b.N; i++ {
		pure = costmodel.Memory(net, 2048, grid.Grid{Pr: 1, Pc: 512}, nil)
		mid = costmodel.Memory(net, 2048, grid.Grid{Pr: 16, Pc: 32}, nil)
		model = costmodel.Memory(net, 2048, grid.Grid{Pr: 512, Pc: 1}, nil)
	}
	b.ReportMetric(pure.TotalBytes()/1e9, "purebatch_GB")
	b.ReportMetric(mid.TotalBytes()/1e9, "grid16x32_GB")
	b.ReportMetric(model.TotalBytes()/1e9, "puremodel_GB")
	b.ReportMetric(pure.WeightWords/mid.WeightWords, "weight_cut_at_Pr16")
}

func BenchmarkEq6RedistributionAblation(b *testing.B) {
	net := nn.AlexNet()
	base := planner.DefaultOptions()
	base.Mode = planner.ConvBatch
	with := base
	with.AddRedistribution = true
	var r0, r1 planner.Result
	var err error
	for i := 0; i < b.N; i++ {
		if r0, err = planner.Optimize(net, 2048, 512, base); err != nil {
			b.Fatal(err)
		}
		if r1, err = planner.Optimize(net, 2048, 512, with); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric((r1.Best.IterSeconds/r0.Best.IterSeconds-1)*100, "overhead_pct")
}

func BenchmarkAlphaBetaSensitivity(b *testing.B) {
	net := nn.AlexNet()
	type machineCase struct {
		name  string
		alpha float64
		bwGBs float64
	}
	cases := []machineCase{
		{"cori", 2e-6, 6},       // Table 1
		{"slow-net", 2e-5, 0.6}, // 10× latency, 10× less bandwidth
		{"fast-net", 2e-7, 60},  // NVLink-class fabric
	}
	var bestPr [3]float64
	for i := 0; i < b.N; i++ {
		for ci, c := range cases {
			o := planner.DefaultOptions()
			o.Mode = planner.ConvBatch
			o.Machine.Alpha = c.alpha
			o.Machine.Beta = 4 / (c.bwGBs * 1e9)
			res, err := planner.Optimize(net, 2048, 512, o)
			if err != nil {
				b.Fatal(err)
			}
			bestPr[ci] = float64(res.Best.Grid.Pr)
		}
	}
	b.ReportMetric(bestPr[0], "bestPr_cori")
	b.ReportMetric(bestPr[1], "bestPr_slownet")
	b.ReportMetric(bestPr[2], "bestPr_fastnet")
}

func BenchmarkConvStrategyAblation(b *testing.B) {
	s := experiments.Default()
	modes := []planner.Mode{planner.Uniform, planner.ConvBatch, planner.Auto}
	var iter [3]float64
	for i := 0; i < b.N; i++ {
		for mi, m := range modes {
			res, err := s.StrongScaling(m, false, 2048, []int{512})
			if err != nil {
				b.Fatal(err)
			}
			iter[mi] = res[0].Best.IterSeconds
		}
	}
	b.ReportMetric(iter[0]*1e3, "uniform_ms_iter")
	b.ReportMetric(iter[1]*1e3, "convbatch_ms_iter")
	b.ReportMetric(iter[2]*1e3, "auto_ms_iter")
}

// BenchmarkMLPPlanning exercises the paper's note that the analysis
// "naturally extends" to RNN-like fully-connected networks: plan a
// 4-layer LSTM-sized MLP.
func BenchmarkMLPPlanning(b *testing.B) {
	net := nn.MLP("rnn-like", 4096, 4096, 4096, 4096, 1000)
	o := planner.DefaultOptions()
	o.Mode = planner.Uniform
	var res planner.Result
	var err error
	for i := 0; i < b.N; i++ {
		if res, err = planner.Optimize(net, 1024, 256, o); err != nil {
			b.Fatal(err)
		}
	}
	total, comm := res.Speedup()
	b.ReportMetric(total, "speedup_total")
	b.ReportMetric(comm, "speedup_comm")
	b.ReportMetric(float64(res.Best.Grid.Pr), "best_Pr")
}
