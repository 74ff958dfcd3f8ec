package main

import (
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"time"

	"dnnparallel"
	"dnnparallel/internal/collective"
	"dnnparallel/internal/costmodel"
	"dnnparallel/internal/grid"
	"dnnparallel/internal/machine"
	"dnnparallel/internal/planner"
	"dnnparallel/internal/scenario"
	"dnnparallel/internal/stage"
	"dnnparallel/internal/timeline"
)

// traceDir is where the traced run writes its Chrome trace, relative to
// the repository root.
const traceDir = ".bench_build/traces"

// ladderMetrics lists the per-layer metrics in print order.
var ladderMetrics = []struct{ name, unit string }{
	{"serve.roundtrip_us", "us"}, {"serve.self_us", "us"}, {"serve.encode_us", "us"},
	{"serve.response_kb", "KB"}, {"serve.cache_hit_ratio", "ratio"}, {"serve.evictions", "count"},
	{"scenario.decode_us", "us"}, {"scenario.canonical_us", "us"}, {"scenario.resolve_us", "us"},
	{"planner.plan_ms", "ms"}, {"planner.optimize_ms", "ms"}, {"planner.candidates", "count"},
	{"planner.priced", "count"}, {"planner.simulated", "count"}, {"planner.bounded_frac", "ratio"},
	{"planner.alloc_kb", "KB"}, {"planner.unattributed_ms", "ms"},
	{"compute.layer_times_us", "us"},
	{"grid.span_us", "us"}, {"grid.span_alloc_kb", "KB"},
	{"collective.topo_us", "us"},
	{"costmodel.price_us", "us"}, {"costmodel.price_alloc_kb", "KB"}, {"costmodel.stage_us", "us"},
	{"timeline.simulate_us", "us"}, {"timeline.spans", "count"},
	{"ladder.coverage", "ratio"}, {"trace.overhead_frac", "ratio"},
}

// samples collects per-request values of each per-layer metric.
type samples map[string][]float64

func (s samples) add(name string, v float64) {
	if !math.IsNaN(v) {
		s[name] = append(s[name], v)
	}
}

func (s samples) median(name string) float64 { return quantile(s[name], 0.5) }

// runTraced is the traced run. Each pass sends every request twice: an
// untraced pass exactly like the end-to-end run, then a traced pass
// whose round trips are spans. The in-process ladder then replays the
// traced pass and times each module's public functions from this
// package.
func runTraced(o options) (result, error) {
	fmt.Printf("workload %s seed %d: traced ladder\n", o.workload, o.seed)
	b, _, err := setUp(o)
	if err != nil {
		return result{}, err
	}
	var t tally
	var fillWs []winner
	if b.hit {
		fillWs = b.fillWinners(&t)
	}
	tr := newTracer()
	s := samples{}
	var untraced, traced, evictions []float64
	var cache cacheDelta
	var runDigest string
	ladders := make(map[string]*plannerLadder)
	start := time.Now()
	// Whole passes while the next one, at the mean pass time so far,
	// still ends within the time.
	for pass := 0; pass == 0 || time.Since(start).Seconds()*float64(pass+1)/float64(pass) <= o.seconds; pass++ {
		tr.on = pass == 0
		var resps []response
		evicted, err := b.countCache(&cache, func() { resps, _ = b.runPass() })
		if err != nil {
			b.close()
			return result{}, err
		}
		evictions = append(evictions, float64(evicted))
		for _, r := range resps {
			untraced = append(untraced, r.Seconds*1e6)
		}
		if ws := b.checkPass(resps, &t); pass == 0 && !b.hit {
			runDigest = digest(ws)
		}

		rts := make([]float64, len(b.reqs))
		_, err = b.countCache(&cache, func() {
			for i, req := range b.reqs {
				t0 := time.Now()
				resps[i] = b.client.plan(req.Body)
				t1 := time.Now()
				tr.span("serve.roundtrip_us", "serve", t0, t1, pass*len(b.reqs)+i, "", nil)
				rts[i] = float64(t1.Sub(t0).Nanoseconds()) / 1e3
			}
		})
		if err != nil {
			b.close()
			return result{}, err
		}
		b.checkPass(resps, &t)
		traced = append(traced, rts...)

		// The in-process ladder: first the server's own sequence for every
		// request, back to back as in the pass; then, once per question,
		// the search and the per-call costs of each layer.
		lads := make([]*requestLadder, len(b.reqs))
		planned := make(map[string]bool)
		for i, req := range b.reqs {
			l, err := replay(req, !b.hit || !planned[req.Key], tr, pass*len(b.reqs)+i)
			if err != nil {
				b.close()
				return result{}, err
			}
			planned[req.Key] = true
			lads[i] = l
		}
		for i, req := range b.reqs {
			if _, ok := ladders[req.Key]; ok {
				continue
			}
			p, err := measurePlanner(req, lads[i], tr, pass*len(b.reqs)+i)
			if err != nil {
				b.close()
				return result{}, err
			}
			ladders[req.Key] = p
		}
		for i, req := range b.reqs {
			lads[i].addTo(s, rts[i], b.hit, ladders[req.Key])
		}
	}
	if err := b.close(); err != nil {
		return result{}, err
	}
	if b.hit {
		runDigest = digest(fillWs)
	}
	correct := true
	if err := verifyDigest(o, b.reqs, runDigest); err != nil {
		correct = false
		t.errs = append(t.errs, err)
		t.failed = t.attempted
	}
	correct = correct && t.failed == 0
	for _, err := range t.errs {
		fmt.Printf("  FAIL %v\n", err)
	}
	path, err := tr.write(traceDir, o.workload, o.seed, o.fingerprint)
	if err != nil {
		return result{}, fmt.Errorf("writing the trace: %w", err)
	}
	fmt.Printf("  digest %s, trace %s (%d spans)\n", runDigest, path, len(tr.events))

	p50 := quantile(untraced, 0.5)
	s.add("serve.cache_hit_ratio", cache.hitRatio())
	s.add("serve.evictions", quantile(evictions, 0.5))
	s.add("ladder.coverage", s.median("ladder.covered_us")/p50)
	s.add("trace.overhead_frac", quantile(traced, 0.5)/p50-1)
	res := result{Correct: correct, Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metric{}}
	for _, m := range ladderMetrics {
		res.report(m.name, s.median(m.name), m.unit, len(s[m.name]))
	}
	return res, nil
}

// requestLadder is one request's replay of the server's sequence (µs).
type requestLadder struct {
	decode, canonical, resolve float64
	// plan, encode and responseKB are NaN when the replay skipped the
	// planner (a repeated question on serve-repeat).
	plan, encode, responseKB float64
	sc                       dnnparallel.Scenario
	resolved                 scenario.Resolved
	res                      *dnnparallel.PlanResult
}

// plannerLadder is the planner-side ladder of one question, measured
// once per run and shared by its respellings.
type plannerLadder struct {
	optimize, allocKB float64 // µs, KB
	stats             planner.SearchStats
	searched          bool
	// Per-call medians over the question's evaluated candidates (µs,
	// KB), and the span count of one simulated schedule.
	layerTimes, span, spanAllocKB, topo, price, priceAllocKB, stage, simulate, spans float64
	// estimate is the search's wall time predicted from its counts and
	// the per-call medians (µs).
	estimate float64
}

// addTo records one request's per-layer values. A hit runs decode,
// Canonical and the cache; a miss also resolves, plans and encodes.
// self is the round trip minus the replay of the same path; covered
// adds back the layer estimates, the search's from its counts (the
// façade's translation of the result is left unattributed).
func (l *requestLadder) addTo(s samples, rt float64, hit bool, p *plannerLadder) {
	s.add("scenario.decode_us", l.decode)
	s.add("scenario.canonical_us", l.canonical)
	s.add("scenario.resolve_us", l.resolve)
	s.add("serve.roundtrip_us", rt)
	self := rt - l.decode - l.canonical
	est := l.decode + l.canonical
	if !hit {
		self -= l.plan + l.encode
		est += l.resolve + p.estimate + l.encode
	}
	s.add("serve.self_us", self)
	s.add("ladder.covered_us", self+est)
	s.add("serve.encode_us", l.encode)
	s.add("serve.response_kb", l.responseKB)
	s.add("planner.plan_ms", l.plan/1e3)
	if p.searched {
		s.add("planner.optimize_ms", p.optimize/1e3)
		s.add("planner.unattributed_ms", (p.optimize-p.estimate)/1e3)
		s.add("planner.alloc_kb", p.allocKB)
	}
	st := p.stats
	s.add("planner.candidates", float64(st.Candidates))
	s.add("planner.priced", float64(st.Priced))
	s.add("planner.simulated", float64(st.TimelineSimulated))
	if st.Candidates > 0 {
		s.add("planner.bounded_frac", float64(st.Bounded)/float64(st.Candidates))
	}
	s.add("compute.layer_times_us", p.layerTimes)
	s.add("grid.span_us", p.span)
	s.add("grid.span_alloc_kb", p.spanAllocKB)
	s.add("collective.topo_us", p.topo)
	s.add("costmodel.price_us", p.price)
	s.add("costmodel.price_alloc_kb", p.priceAllocKB)
	s.add("costmodel.stage_us", p.stage)
	s.add("timeline.simulate_us", p.simulate)
	s.add("timeline.spans", p.spans)
}

// timed runs f once and records it as a span.
func timed(tr *tracer, id int, name, layer string, f func()) float64 {
	t0 := time.Now()
	f()
	t1 := time.Now()
	tr.span(name, layer, t0, t1, id, "serve.roundtrip_us", nil)
	return float64(t1.Sub(t0).Nanoseconds()) / 1e3
}

// perCall runs f until at least minBatch has elapsed (at least once)
// and returns the mean µs per call, recording the batch as a span.
func perCall(tr *tracer, id int, name, layer string, f func()) float64 {
	const minBatch = 20 * time.Microsecond
	t0 := time.Now()
	n := 0
	var el time.Duration
	for n < 1000 && el < minBatch {
		f()
		n++
		el = time.Since(t0)
	}
	tr.span(name, layer, t0, t0.Add(el), id, "serve.roundtrip_us", map[string]any{"calls": n})
	return float64(el.Nanoseconds()) / 1e3 / float64(n)
}

// allocKB returns the KB the heap allocated during one call of f.
func allocKB(f func()) float64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return float64(m1.TotalAlloc-m0.TotalAlloc) / 1024
}

// replay runs the server's sequence for one request in-process: decode,
// Canonical, and when plan is set Resolve, the façade's Plan and the
// JSON encoding.
func replay(req request, plan bool, tr *tracer, id int) (*requestLadder, error) {
	l := &requestLadder{plan: math.NaN(), encode: math.NaN(), responseKB: math.NaN()}
	var err error
	l.decode = timed(tr, id, "scenario.decode_us", "scenario", func() { l.sc, err = dnnparallel.DecodeScenario(req.Body) })
	if err != nil {
		return nil, fmt.Errorf("%s: %w", req.Name, err)
	}
	l.canonical = timed(tr, id, "scenario.canonical_us", "scenario", func() { _, err = l.sc.Canonical() })
	if err != nil {
		return nil, fmt.Errorf("%s: %w", req.Name, err)
	}
	l.resolve = timed(tr, id, "scenario.resolve_us", "scenario", func() { l.resolved, err = l.sc.Resolve() })
	if err != nil {
		return nil, fmt.Errorf("%s: %w", req.Name, err)
	}
	if !plan {
		return l, nil
	}
	l.plan = timed(tr, id, "planner.plan_ms", "planner", func() { l.res, err = dnnparallel.Plan(l.sc) })
	if err != nil {
		return nil, fmt.Errorf("%s: %w", req.Name, err)
	}
	var data []byte
	l.encode = timed(tr, id, "serve.encode_us", "serve", func() { data, err = json.Marshal(l.res) })
	if err != nil {
		return nil, fmt.Errorf("%s: %w", req.Name, err)
	}
	l.responseKB = float64(len(data)+1) / 1024 // the server appends a newline
	return l, nil
}

// measurePlanner times the search and each layer's public functions on
// the question's evaluated candidates, then estimates the search from
// its counts and the per-call medians.
func measurePlanner(req request, l *requestLadder, tr *tracer, id int) (*plannerLadder, error) {
	p := &plannerLadder{}
	r := l.resolved
	var err error
	if r.Grid == nil {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		var pres planner.Result
		p.optimize = timed(tr, id, "planner.optimize_ms", "planner", func() {
			pres, err = planner.Optimize(r.Net, r.Batch, r.Procs, r.Options)
		})
		runtime.ReadMemStats(&m1)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", req.Name, err)
		}
		p.searched = true
		p.allocKB = float64(m1.TotalAlloc-m0.TotalAlloc) / 1024
		p.stats = pres.Stats
	} else {
		// A pinned grid prices exactly one candidate.
		p.stats = planner.SearchStats{Candidates: 1, Priced: 1}
		if r.Options.UseTimeline {
			p.stats.TimelineSimulated = 1
		}
	}

	topo := r.Options.Topology
	if topo.IsZero() {
		topo = machine.Flat(r.Options.Machine)
	}
	var cs []candidateCost
	for _, c := range sampleCandidates(l.res.Raw) {
		cc, err := measureCandidate(r, topo, c, tr, id)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", req.Name, err)
		}
		cs = append(cs, cc)
	}
	med := func(f func(candidateCost) float64) float64 {
		xs := make([]float64, len(cs))
		for i, c := range cs {
			xs[i] = f(c)
		}
		return quantile(xs, 0.5)
	}
	p.layerTimes = med(func(c candidateCost) float64 { return c.layerTimes })
	p.span = med(func(c candidateCost) float64 { return c.span })
	p.spanAllocKB = med(func(c candidateCost) float64 { return c.spanAllocKB })
	p.topo = med(func(c candidateCost) float64 { return c.topo })
	p.price = med(func(c candidateCost) float64 { return c.price })
	p.priceAllocKB = med(func(c candidateCost) float64 { return c.priceAllocKB })
	p.stage = med(func(c candidateCost) float64 { return c.stage })
	p.simulate = med(func(c candidateCost) float64 { return c.simulate })
	p.spans = med(func(c candidateCost) float64 { return c.spans })
	p.estimate = p.searchEstimate(r)
	return p, nil
}

// searchEstimate predicts the search's wall time from its counts and
// the per-call medians (µs):
//
//   - every candidate that reached pricing (priced or memory-pruned)
//     chose its layer strategies, three FullIntegrated calls in auto
//     mode;
//   - a priced single-stage candidate costs one FullIntegrated, one
//     simulation when timeline-scored, and one compute split when
//     closed-form or micro-batched (M > 1 re-splits at B/M);
//   - a priced multi-stage candidate costs one StageIteration;
//   - candidates are evaluated by the planner's workers (GOMAXPROCS,
//     capped at the CPU and candidate counts), assumed to scale
//     perfectly;
//   - enumeration, serial, fills one compute split per grid and
//     micro-batch size.
func (p *plannerLadder) searchEstimate(r scenario.Resolved) float64 {
	st := p.stats
	o := r.Options
	assign := 0.0
	if o.Mode == planner.Auto {
		assign = 3
	}
	eval := assign * float64(st.Priced+st.MemoryPruned) * p.price
	multiM := 0.0
	for _, m := range o.MicroBatches {
		if m > 1 {
			multiM++
		}
	}
	if st.StageCandidates > 0 {
		eval += float64(st.Priced) * p.stage
	} else {
		eval += float64(st.Priced) * p.price
		eval += float64(st.TimelineSimulated) * p.simulate
		if !o.UseTimeline {
			eval += float64(st.Priced) * p.layerTimes
		} else if n := len(o.MicroBatches); n > 0 {
			eval += float64(st.TimelineSimulated) * multiM / float64(n) * p.layerTimes
		}
	}
	workers := min(runtime.GOMAXPROCS(0), runtime.NumCPU(), max(st.Candidates, 1))
	return eval/float64(workers) + float64(st.GridsEnumerated)*(1+multiM)*p.layerTimes
}

// candidate is one evaluated configuration the ladder re-prices.
type candidate struct {
	g         grid.Grid
	pl        grid.Placement
	assign    costmodel.Assignment
	batch     int
	micro     int
	stages    int
	partition []int
}

// sampleCandidates returns the winner and up to three other priced
// candidates spread over the result's evaluated grids.
func sampleCandidates(res *planner.Result) []candidate {
	conv := func(p planner.Plan) candidate {
		return candidate{g: p.Grid, pl: p.Placement, assign: p.Assignment, batch: p.Batch,
			micro: max(p.MicroBatch, 1), stages: max(p.Stages, 1), partition: p.Partition}
	}
	out := []candidate{conv(res.Best)}
	var priced []planner.Plan
	for _, p := range res.All {
		if p.Feasible && p.Assignment != nil {
			priced = append(priced, p)
		}
	}
	const others = 3
	for k := 0; k < others && k < len(priced); k++ {
		out = append(out, conv(priced[k*len(priced)/min(others, len(priced))]))
	}
	return out
}

// candidateCost is one candidate's per-call layer costs.
type candidateCost struct {
	layerTimes, span, spanAllocKB, topo, price, priceAllocKB, stage, simulate, spans float64
}

// measureCandidate times each layer's public functions on one
// candidate: the compute split, the level spans of its collective groups
// (one (grid, placement, offset)), the per-level collectives those groups
// price, the Eq. 3–9 breakdown, the stage-partitioned iteration, and the
// timeline simulation of its schedule.
func measureCandidate(r scenario.Resolved, topo machine.Topology, c candidate, tr *tracer, id int) (candidateCost, error) {
	var out candidateCost
	net, o := r.Net, r.Options
	env := costmodel.Env{Topo: topo, Placement: c.pl}
	mb := c.batch / c.micro
	sizes := topo.GroupSizes()
	g, pl := c.g, c.pl

	out.layerTimes = perCall(tr, id, "compute.layer_times_us", "compute", func() { o.Compute.GridLayerTimes(net, mb, g) })

	var col, row []grid.LevelSpan
	var all grid.LevelSpan
	var halo int
	spans := func() {
		col = g.ColGroupSpansAt(sizes, pl, 0)
		row = g.RowGroupSpansAt(sizes, pl, 0)
		all = g.AllSpanAt(sizes, 0)
		halo = g.ColNeighborsLevelAt(sizes, pl, 0)
	}
	out.span = perCall(tr, id, "grid.span_us", "grid", spans)
	out.spanAllocKB = allocKB(spans)

	widx := net.WeightedLayers()
	out.topo = perCall(tr, id, "collective.topo_us", "collective", func() {
		for _, li := range widx {
			l := &net.Layers[li]
			act := float64(mb) * float64(l.OutSize()) / float64(g.Pc)
			w := float64(l.Weights()) / float64(g.Pr)
			collective.MaxCost(col, func(s grid.LevelSpan) collective.Cost { return collective.AllGatherTopo(s, act, topo) })
			collective.MaxCost(col, func(s grid.LevelSpan) collective.Cost { return collective.AllReduceTopo(s, act, topo) })
			collective.MaxCost(row, func(s grid.LevelSpan) collective.Cost { return collective.AllReduceTopo(s, w, topo) })
			collective.AllReduceTopo(all, w, topo)
			collective.PointToPointTopo(halo, act, topo)
		}
	})

	var b *costmodel.Breakdown
	price := func() { b = env.FullIntegrated(net, mb, g, c.assign) }
	out.price = perCall(tr, id, "costmodel.price_us", "costmodel", price)
	out.priceAllocKB = allocKB(price)

	part, err := partitionOf(c, len(widx))
	if err != nil {
		return out, err
	}
	grids := make([]grid.Grid, c.stages)
	for k := range grids {
		grids[k] = g
	}
	sched := timeline.Schedule{Shape: o.Schedule, MicroBatches: c.micro}
	out.stage = perCall(tr, id, "costmodel.stage_us", "costmodel", func() {
		_, err = env.StageIteration(net, c.batch, part, grids, c.assign, o.Compute, o.TimelinePolicy, sched)
	})
	if err != nil {
		return out, fmt.Errorf("StageIteration: %w", err)
	}

	times, _ := o.Compute.GridLayerTimes(net, mb, g)
	layers := costmodel.TimelineLayers(b, times)
	sched.Stages, sched.Partition = c.stages, part.Starts
	var sim *timeline.Result
	out.simulate = perCall(tr, id, "timeline.simulate_us", "timeline", func() {
		sim, err = timeline.SimulatePipeline(layers, o.TimelinePolicy, sched)
	})
	if err != nil {
		return out, fmt.Errorf("SimulatePipeline: %w", err)
	}
	out.spans = float64(len(sim.Spans))
	return out, nil
}

// partitionOf returns the candidate's stage partition over L weighted
// layers (one stage when it is not pipelined across stages).
func partitionOf(c candidate, L int) (stage.Partition, error) {
	if c.stages > 1 {
		return stage.FromCuts(c.partition, L)
	}
	return stage.New([]int{0}, L)
}
