package costmodel

import (
	"math"
	"testing"
	"testing/quick"

	"dnnparallel/internal/grid"
	"dnnparallel/internal/machine"
	"dnnparallel/internal/nn"
)

func knl() machine.Machine { return machine.CoriKNL() }

// onFlat is the one-level environment of a flat machine — the paper's
// setting, where every Eq. 3–9 term takes its flat closed form.
func onFlat(m machine.Machine) Env { return Env{Topo: machine.Flat(m)} }

// The eq* helpers write the paper's pure-scheme equations out term by
// term from α, β, B, P and the layer sizes, independently of the pricer,
// so each grid corner of FullIntegrated is checked against the formula
// it claims to be.

func ceilLog2(p int) float64 {
	if p <= 1 {
		return 0
	}
	return math.Ceil(math.Log2(float64(p)))
}

// eq3 is pure model parallelism over P processes:
// Σ_{i=1..L} (α⌈log P⌉ + β·B·(P−1)/P·d_i) + 2·Σ_{i=2..L} (α⌈log P⌉ +
// β·B·(P−1)/P·d_{i−1}), with d_{i−1} the layer's input size.
func eq3(net *nn.Network, B, P int, m machine.Machine) float64 {
	f := float64(P-1) / float64(P)
	var t float64
	for k, li := range net.WeightedLayers() {
		l := &net.Layers[li]
		t += m.Alpha*ceilLog2(P) + m.Beta*float64(B)*f*float64(l.OutSize())
		if k > 0 {
			t += 2 * (m.Alpha*ceilLog2(P) + m.Beta*float64(B)*f*float64(l.InSize()))
		}
	}
	return t
}

// eq4 is pure batch parallelism over P processes:
// 2·Σ_i (α⌈log P⌉ + β·(P−1)/P·|W_i|).
func eq4(net *nn.Network, P int, m machine.Machine) float64 {
	var t float64
	for _, li := range net.WeightedLayers() {
		t += 2 * (m.Alpha*ceilLog2(P) + m.Beta*float64(P-1)/float64(P)*float64(net.Layers[li].Weights()))
	}
	return t
}

// eq6 is the one-way batch→model redistribution of layer li's output
// over P processes: α⌈log P⌉ + β·B·(P−1)/P·d_i.
func eq6(net *nn.Network, li, B, P int, m machine.Machine) float64 {
	return m.Alpha*ceilLog2(P) + m.Beta*float64(B)*float64(P-1)/float64(P)*float64(net.Layers[li].OutSize())
}

// eq7Halo is the halo part of pure domain parallelism over P processes:
// Σ_i (α + β·B·X_W·X_C·⌊kh/2⌋) + Σ_i (α + β·B·Y_W·Y_C·⌊kw/2⌋), a term
// dropping out when its volume is zero (1×1 convolutions); FC layers
// exchange their whole input and output blocks. Eq. 7 adds eq4's weight
// all-reduce.
func eq7Halo(net *nn.Network, B int, m machine.Machine) float64 {
	msg := func(words float64) float64 {
		if words == 0 {
			return 0
		}
		return m.Alpha + m.Beta*words
	}
	var t float64
	for _, li := range net.WeightedLayers() {
		l := &net.Layers[li]
		switch l.Kind {
		case nn.Conv:
			t += msg(float64(B) * float64(l.In.W*l.In.C) * float64(l.KH/2))
			t += msg(float64(B) * float64(l.Out.W*l.Out.C) * float64(l.KW/2))
		case nn.FC:
			t += msg(float64(B)*float64(l.InSize())) + msg(float64(B)*float64(l.OutSize()))
		}
	}
	return t
}

// eq8 is the integrated 1.5D model+batch scheme on a Pr × Pc grid:
// Σ_{i=1..L} (α⌈log Pr⌉ + β·(B/Pc)·(Pr−1)/Pr·d_i)
// + 2·Σ_{i=2..L} (α⌈log Pr⌉ + β·(B/Pc)·(Pr−1)/Pr·d_{i−1})
// + 2·Σ_i (α⌈log Pc⌉ + β·(Pc−1)/Pc·|W_i|/Pr).
func eq8(net *nn.Network, B int, g grid.Grid, m machine.Machine) float64 {
	localB := float64(B) / float64(g.Pc)
	fr := float64(g.Pr-1) / float64(g.Pr)
	fc := float64(g.Pc-1) / float64(g.Pc)
	var t float64
	for k, li := range net.WeightedLayers() {
		l := &net.Layers[li]
		if g.Pr > 1 {
			t += m.Alpha*ceilLog2(g.Pr) + m.Beta*localB*fr*float64(l.OutSize())
			if k > 0 {
				t += 2 * (m.Alpha*ceilLog2(g.Pr) + m.Beta*localB*fr*float64(l.InSize()))
			}
		}
		if g.Pc > 1 {
			t += 2 * (m.Alpha*ceilLog2(g.Pc) + m.Beta*fc*float64(l.Weights())/float64(g.Pr))
		}
	}
	return t
}

// closeTo reports whether got matches the written-out want to 1e-12
// relative (floor 1).
func closeTo(got, want float64) bool {
	return math.Abs(got-want) < 1e-12*math.Max(1, want)
}

// TestIntegratedReducesToPureBatch: Eq. 9 on the 1×P grid is Eq. 4 —
// with every layer BatchOnly, and with a nil assignment (Eq. 8 with
// Pr = 1) — the paper's consistency check "for L_M = L, L_D = 0 we get
// the integrated complexity as expected" specialized to the batch end.
func TestIntegratedReducesToPureBatch(t *testing.T) {
	net := nn.AlexNet()
	env := onFlat(knl())
	batchOnly := UniformAssignment(net, BatchOnly)
	f := func(pRaw uint8, bRaw uint16) bool {
		p := 2 + int(pRaw)%510
		b := 1 + int(bRaw)%4096
		g := grid.Grid{Pr: 1, Pc: p}
		want := eq4(net, p, knl())
		return closeTo(env.FullIntegrated(net, b, g, batchOnly).TotalSeconds(), want) &&
			closeTo(env.FullIntegrated(net, b, g, nil).TotalSeconds(), want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestIntegratedReducesToPureModel: Eq. 9 on the P×1 grid with a nil
// assignment is Eq. 3 (the gradient all-reduce over a 1-process group
// vanishes).
func TestIntegratedReducesToPureModel(t *testing.T) {
	net := nn.AlexNet()
	env := onFlat(knl())
	f := func(pRaw uint8, bRaw uint16) bool {
		p := 2 + int(pRaw)%510
		b := 1 + int(bRaw)%4096
		got := env.FullIntegrated(net, b, grid.Grid{Pr: p, Pc: 1}, nil).TotalSeconds()
		return closeTo(got, eq3(net, b, p, knl()))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestFullIntegratedDefaultsToIntegrated: Eq. 9 with L_M = all layers —
// a nil assignment or every layer Model — is Eq. 8 (the paper's stated
// specialization).
func TestFullIntegratedDefaultsToIntegrated(t *testing.T) {
	net := nn.AlexNet()
	env := onFlat(knl())
	for _, g := range []grid.Grid{{Pr: 1, Pc: 64}, {Pr: 4, Pc: 16}, {Pr: 16, Pc: 32}, {Pr: 64, Pc: 1}} {
		want := eq8(net, 512, g, knl())
		for _, assign := range []Assignment{nil, UniformAssignment(net, Model)} {
			if got := env.FullIntegrated(net, 512, g, assign).TotalSeconds(); math.Abs(got-want) > 1e-15 {
				t.Fatalf("grid %v: FullIntegrated(%v) = %g, Eq. 8 = %g", g, assign, got, want)
			}
		}
	}
}

// TestPureBatchBandwidthIndependentOfP: the paper notes that for P ≫ 1 the
// Eq. 4 bandwidth cost is independent of P and of B.
func TestPureBatchBandwidthIndependentOfP(t *testing.T) {
	net := nn.AlexNet()
	batchOnly := UniformAssignment(net, BatchOnly)
	c512 := onFlat(knl()).FullIntegrated(net, 2048, grid.Grid{Pr: 1, Pc: 512}, batchOnly)
	c4096 := onFlat(knl()).FullIntegrated(net, 123, grid.Grid{Pr: 1, Pc: 4096}, batchOnly)
	var bw512, bw4096 float64
	for _, l := range c512.Layers {
		bw512 += l.GradReduce.Bandwidth
	}
	for _, l := range c4096.Layers {
		bw4096 += l.GradReduce.Bandwidth
	}
	if rel := math.Abs(bw512-bw4096) / bw512; rel > 0.002 {
		t.Fatalf("pure-batch bandwidth varies with P by %v", rel)
	}
}

// TestPureModelScalesWithB: Eq. 3's volume is proportional to the batch
// size, unlike Eq. 4.
func TestPureModelScalesWithB(t *testing.T) {
	net := nn.AlexNet()
	var bw1, bw2 float64
	g := grid.Grid{Pr: 16, Pc: 1}
	for _, l := range onFlat(knl()).FullIntegrated(net, 128, g, nil).Layers {
		bw1 += l.AllGather.Bandwidth + l.ActReduce.Bandwidth
	}
	for _, l := range onFlat(knl()).FullIntegrated(net, 256, g, nil).Layers {
		bw2 += l.AllGather.Bandwidth + l.ActReduce.Bandwidth
	}
	if math.Abs(bw2-2*bw1) > 1e-12*bw2 {
		t.Fatalf("model-parallel bandwidth not linear in B: %g vs 2×%g", bw2, bw1)
	}
}

// TestEq5CrossoverAlexNetConv: the paper's worked example — for AlexNet's
// 3×3 convolutions on 13×13 activations with 384 input channels (conv4,
// conv5), model parallelism has lower communication volume for B ≤ ~12.
func TestEq5CrossoverAlexNetConv(t *testing.T) {
	net := nn.AlexNet()
	var conv4 *nn.Layer
	for i := range net.Layers {
		if net.Layers[i].Name == "conv4" {
			conv4 = &net.Layers[i]
		}
	}
	if conv4 == nil {
		t.Fatal("conv4 not found")
	}
	// 2·kh·kw·X_C/(3·Y_H·Y_W) = 2·9·384/(3·169) = 13.6…
	cross := ModelBatchCrossoverB(conv4)
	if cross < 12 || cross > 14 {
		t.Fatalf("conv4 crossover B = %d, paper says ≈12", cross)
	}
	if r := VolumeRatioBatchOverModel(conv4, cross); r <= 1 {
		t.Fatalf("at B = %d model should still win (ratio %g)", cross, r)
	}
	if r := VolumeRatioBatchOverModel(conv4, cross+2); r >= 1 {
		t.Fatalf("at B = %d batch should win (ratio %g)", cross+2, r)
	}
}

// TestCrossoverMonotonicity: Eq. 5's ratio decreases in B for every conv
// layer (batch parallelism eventually always wins).
func TestCrossoverMonotonicity(t *testing.T) {
	net := nn.AlexNet()
	for _, li := range net.ConvLayers() {
		l := &net.Layers[li]
		prev := math.Inf(1)
		for _, b := range []int{1, 2, 4, 8, 16, 64, 256, 2048} {
			r := VolumeRatioBatchOverModel(l, b)
			if r >= prev {
				t.Fatalf("%s: ratio not strictly decreasing in B", l.Name)
			}
			prev = r
		}
	}
}

// TestIntegratedBeatsPureAtScale reproduces the paper's headline analytic
// claim: at P = 512, B = 2048 on AlexNet, some Pr > 1 grid has strictly
// lower communication time than both pure batch (1×512) and pure model
// (512×1).
func TestIntegratedBeatsPureAtScale(t *testing.T) {
	net := nn.AlexNet()
	env := onFlat(knl())
	pure := env.FullIntegrated(net, 2048, grid.Grid{Pr: 1, Pc: 512}, nil).TotalSeconds()
	model := env.FullIntegrated(net, 2048, grid.Grid{Pr: 512, Pc: 1}, nil).TotalSeconds()
	best := math.Inf(1)
	var bestG grid.Grid
	for _, g := range grid.Factorizations(512) {
		if c := env.FullIntegrated(net, 2048, g, nil).TotalSeconds(); c < best {
			best, bestG = c, g
		}
	}
	if bestG.Pr == 1 || bestG.Pc == 1 {
		t.Fatalf("best grid %v is pure; integrated should win (batch %g, model %g, best %g)",
			bestG, pure, model, best)
	}
	if best >= pure || best >= model {
		t.Fatalf("best integrated %g not better than pure batch %g / model %g", best, pure, model)
	}
}

// TestConvBatchOnlyImprovesUniformGrid encodes the Fig. 7-vs-Fig. 6
// comparison: forcing conv layers to pure batch lowers the best
// communication time versus using the same grid everywhere.
func TestConvBatchOnlyImprovesUniformGrid(t *testing.T) {
	net := nn.AlexNet()
	env := onFlat(knl())
	bestUniform, bestSplit := math.Inf(1), math.Inf(1)
	for _, g := range grid.Factorizations(512) {
		if c := env.FullIntegrated(net, 2048, g, nil).TotalSeconds(); c < bestUniform {
			bestUniform = c
		}
		assign := ConvAssignment(net, BatchOnly, Model)
		if c := env.FullIntegrated(net, 2048, g, assign).TotalSeconds(); c < bestSplit {
			bestSplit = c
		}
	}
	if bestSplit >= bestUniform {
		t.Fatalf("conv-batch-only (%g) should beat uniform grids (%g)", bestSplit, bestUniform)
	}
}

// TestDomainBeatsModelOnEarlyLayers: for AlexNet's early conv layers the
// per-layer domain cost is lower than the per-layer model cost at large
// per-process batch (the Section 2.4 motivation for L_D).
func TestDomainBeatsModelOnEarlyLayers(t *testing.T) {
	net := nn.AlexNet()
	g := grid.Grid{Pr: 4, Pc: 128}
	conv1 := net.ConvLayers()[0]
	pr := onFlat(knl()).pricerAt(g, 0)
	mc := modelLayerCost(net, conv1, 512, pr, false).Total().Total()
	dc := domainLayerCost(net, conv1, 512, pr).Total().Total()
	if dc >= mc {
		t.Fatalf("conv1: domain %g should beat model %g", dc, mc)
	}
}

// TestDomainFreeFor1x1Conv: Eq. 7 — 1×1 convolutions need no halo.
func TestDomainFreeFor1x1Conv(t *testing.T) {
	net := nn.OneByOneNet()
	pr := onFlat(knl()).pricerAt(grid.Grid{Pr: 4, Pc: 4}, 0)
	for _, li := range net.ConvLayers() {
		l := &net.Layers[li]
		lc := domainLayerCost(net, li, 64, pr)
		if l.KH == 1 && l.KW == 1 && lc.Halo().Total() != 0 {
			t.Fatalf("%s: 1×1 conv should have zero halo, got %g", l.Name, lc.Halo().Total())
		}
		if l.KH == 3 && lc.Halo().Total() == 0 {
			t.Fatalf("%s: 3×3 conv should have non-zero halo", l.Name)
		}
	}
}

// TestDomainFCIsExpensive: the FC halo is the whole activation panel, so
// domain parallelism must lose to model parallelism on AlexNet FC layers.
func TestDomainFCIsExpensive(t *testing.T) {
	net := nn.AlexNet()
	g := grid.Grid{Pr: 8, Pc: 64}
	fc6 := net.FCLayers()[0]
	pr := onFlat(knl()).pricerAt(g, 0)
	mc := modelLayerCost(net, fc6, 2048, pr, false).Total().Total()
	dc := domainLayerCost(net, fc6, 2048, pr).Total().Total()
	if dc <= mc {
		t.Fatalf("fc6: domain %g should be worse than model %g", dc, mc)
	}
}

// TestRedistributeAsymptoticallyFree: Eq. 6 — the batch→model
// redistribution all-gather costs no more than the subsequent
// model-parallel layer communication (the paper: "three times the cost
// of the redistribution"), and RedistributionSeconds charges exactly the
// written-out Eq. 6, once forward and once backward, at a strategy
// change on the P×1 grid.
func TestRedistributeAsymptoticallyFree(t *testing.T) {
	net := nn.AlexNet()
	p, b := 64, 1024
	env := onFlat(knl())
	g := grid.Grid{Pr: p, Pc: 1}
	model := env.FullIntegrated(net, b, g, nil)
	widx := net.WeightedLayers()
	for k, li := range widx {
		redist := eq6(net, li, b, p, knl())
		if k+1 < len(widx) {
			// Switch strategy right after layer li: one boundary, whose
			// redistribution moves li's output.
			assign := make(Assignment)
			for j, lj := range widx {
				if j > k {
					assign[lj] = Domain
				}
			}
			if got := env.RedistributionSeconds(net, b, g, assign); !closeTo(got, 2*redist) {
				t.Fatalf("layer %d: RedistributionSeconds %g, want 2×Eq. 6 = %g", li, got, 2*redist)
			}
		}
		if k == 0 {
			continue // first layer has no ∆X all-reduce
		}
		// The model-parallel step per layer ≈ all-gather(d_i) +
		// 2×all-reduce(d_{i-1}); redistribution is one all-gather(d_i).
		layerCost := model.Layers[k].Total().Total()
		if redist > layerCost {
			t.Fatalf("layer %d: redistribution %g exceeds model step %g", li, redist, layerCost)
		}
	}
}

// TestBreakdownAccounting: forward + backward partition the total.
func TestBreakdownAccounting(t *testing.T) {
	net := nn.AlexNet()
	assign := ConvAssignment(net, Domain, Model)
	b := onFlat(knl()).FullIntegrated(net, 512, grid.Grid{Pr: 4, Pc: 128}, assign)
	sum := b.ForwardSeconds() + b.BackwardSeconds()
	if math.Abs(sum-b.TotalSeconds()) > 1e-15 {
		t.Fatalf("fwd %g + bwd %g ≠ total %g", b.ForwardSeconds(), b.BackwardSeconds(), b.TotalSeconds())
	}
	if b.GradReduceSeconds() <= 0 || b.GradReduceSeconds() > b.TotalSeconds() {
		t.Fatalf("grad-reduce share out of range: %g of %g", b.GradReduceSeconds(), b.TotalSeconds())
	}
}

// TestOverlapNeverWorse: overlapping can only help, and is bounded below
// by compute plus forward communication.
func TestOverlapNeverWorse(t *testing.T) {
	net := nn.AlexNet()
	f := func(prIdx, bIdx uint8) bool {
		grids := grid.Factorizations(256)
		g := grids[int(prIdx)%len(grids)]
		b := 256 << (int(bIdx) % 4)
		bd := onFlat(knl()).FullIntegrated(net, b, g, nil)
		comp := 0.01
		plain := IterationSeconds(bd, comp, false)
		over := IterationSeconds(bd, comp, true)
		return over <= plain && over >= comp
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEpochScaling(t *testing.T) {
	if EpochIterations(1200000, 2048) != 586 {
		t.Fatalf("EpochIterations = %d, want 586", EpochIterations(1200000, 2048))
	}
	if EpochSeconds(0.1, 1000, 100) != 1.0 {
		t.Fatal("EpochSeconds scaling wrong")
	}
}

func TestUniformAndConvAssignments(t *testing.T) {
	net := nn.AlexNet()
	ua := UniformAssignment(net, Domain)
	if len(ua) != len(net.WeightedLayers()) {
		t.Fatal("UniformAssignment wrong size")
	}
	ca := ConvAssignment(net, Domain, Model)
	for li, s := range ca {
		if net.Layers[li].Kind == nn.Conv && s != Domain {
			t.Fatalf("conv layer %d got %v", li, s)
		}
		if net.Layers[li].Kind == nn.FC && s != Model {
			t.Fatalf("fc layer %d got %v", li, s)
		}
	}
	if Model.String() != "model" || Domain.String() != "domain" || BatchOnly.String() != "batch" {
		t.Fatal("Strategy.String mismatch")
	}
}

// TestPureDomainCarriesFullBatch: Eq. 7's halo volumes scale with the
// full B (pure domain does not split the batch), and Eq. 9 on the P×1
// grid with every layer Domain is the written-out Eq. 7.
func TestPureDomainCarriesFullBatch(t *testing.T) {
	net := nn.AlexNet()
	p := 8
	env := onFlat(knl())
	g := grid.Grid{Pr: p, Pc: 1}
	domain := UniformAssignment(net, Domain)
	d1 := env.FullIntegrated(net, 256, g, domain)
	d2 := env.FullIntegrated(net, 512, g, domain)
	var h1, h2 float64
	for i := range d1.Layers {
		h1 += d1.Layers[i].Halo().Bandwidth
		h2 += d2.Layers[i].Halo().Bandwidth
	}
	if math.Abs(h2-2*h1) > 1e-12*h2 {
		t.Fatalf("pure-domain halo bandwidth not linear in B: %g vs 2×%g", h2, h1)
	}
	want := eq7Halo(net, 256, knl()) + eq4(net, p, knl())
	if got := d1.TotalSeconds(); !closeTo(got, want) {
		t.Fatalf("Eq. 9 at P×1 all-domain (%g) ≠ Eq. 7 (%g)", got, want)
	}
}

// TestPureDomainGradientReduceMatchesBatch: the third Eq. 7 term is the
// same weight all-reduce as Eq. 4.
func TestPureDomainGradientReduceMatchesBatch(t *testing.T) {
	net := nn.AlexNet()
	d := onFlat(knl()).FullIntegrated(net, 128, grid.Grid{Pr: 16, Pc: 1}, UniformAssignment(net, Domain))
	if got, want := d.GradReduceSeconds(), eq4(net, 16, knl()); math.Abs(got-want) > 1e-15 {
		t.Fatalf("Eq. 7 grad term %g ≠ Eq. 4 %g", got, want)
	}
}
