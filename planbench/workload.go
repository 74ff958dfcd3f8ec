package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	"dnnparallel"
	"dnnparallel/internal/costmodel"
	"dnnparallel/internal/grid"
	"dnnparallel/internal/nn"
)

// Workload names, in the order --workload all runs them.
var workloadNames = []string{"flat-paper", "hier-topology", "pipeline-sim", "serve-repeat"}

// request is one generated /v1/plan question as the client sends it.
type request struct {
	// Name labels the request in checks and traces: "golden/<file>" for
	// the example scenarios, "<workload>/<index>[/<spelling>]" otherwise.
	Name string
	// Body is the JSON the server receives.
	Body []byte
	// Key is the canonical scenario form: the server's cache key, and
	// the identity deduplication and known answers are keyed on.
	Key string
}

// The networks every generator draws from.
var nets = []string{"alexnet", "vgg16", "resnet50", "onebyone"}

// Golden example scenarios, by the workload that includes them.
var goldens = map[string][]string{
	"flat-paper":    {"alexnet-p512", "alexnet-tta"},
	"hier-topology": {"alexnet-rack", "alexnet-topology"},
	"pipeline-sim":  {"alexnet-sim-8x64", "alexnet-pipeline", "alexnet-stages"},
}

// Request counts of the generated part of each workload (goldens come
// on top). The set is fixed by seed and count, never by a time limit.
const (
	flatCount  = 256
	hierCount  = 48
	repeatFlat = 96 // serve-repeat questions drawn from the flat generator
	repeatHier = 32 // … and from the hierarchical one (P ≤ 512)
)

// generate builds the request list of one workload from its seed. root
// is the repository root, where the golden scenarios are read from. The
// same (workload, seed) always yields byte-identical bodies.
func generate(workload string, seed int64, root string) ([]request, error) {
	r := rand.New(rand.NewSource(seed))
	g := &generator{seen: make(map[string]bool)}
	for _, name := range goldens[workload] {
		if err := g.addGolden(root, name); err != nil {
			return nil, err
		}
	}
	switch workload {
	case "flat-paper":
		for i := 0; i < flatCount; i++ {
			if _, err := g.addDistinct(fmt.Sprintf("%s/%03d", workload, i), func() dnnparallel.Scenario { return flatQuestion(r, i) }); err != nil {
				return nil, err
			}
		}
	case "hier-topology":
		for i := 0; i < hierCount; i++ {
			if _, err := g.addDistinct(fmt.Sprintf("%s/%03d", workload, i), func() dnnparallel.Scenario { return hierQuestion(r, i, 4096) }); err != nil {
				return nil, err
			}
		}
	case "pipeline-sim":
		for i := 0; i < 2*len(pipelineSlots); i++ {
			if _, err := g.addDistinct(fmt.Sprintf("%s/%03d", workload, i), func() dnnparallel.Scenario { return pipelineQuestion(r, i) }); err != nil {
				return nil, err
			}
		}
	case "serve-repeat":
		return repeatRequests(r)
	default:
		return nil, fmt.Errorf("unknown workload %q (want %s)", workload, strings.Join(workloadNames, "|"))
	}
	return g.reqs, nil
}

// generator accumulates requests, rejecting canonical duplicates.
type generator struct {
	reqs []request
	seen map[string]bool
}

func (g *generator) addGolden(root, name string) error {
	path := filepath.Join(root, "examples", "scenarios", name+".json")
	body, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("reading golden scenario: %w", err)
	}
	sc, err := dnnparallel.DecodeScenario(body)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	key, err := sc.Canonical()
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	g.seen[string(key)] = true
	g.reqs = append(g.reqs, request{Name: "golden/" + name, Body: body, Key: string(key)})
	return nil
}

func (g *generator) add(name string, sc dnnparallel.Scenario) error {
	req, err := encode(name, sc)
	if err != nil {
		return err
	}
	if g.seen[req.Key] {
		return fmt.Errorf("%s duplicates an earlier question", name)
	}
	g.seen[req.Key] = true
	g.reqs = append(g.reqs, req)
	return nil
}

// addDistinct draws from next until it yields a question whose canonical
// form is new, so every request of a miss workload misses the cache.
func (g *generator) addDistinct(name string, next func() dnnparallel.Scenario) (dnnparallel.Scenario, error) {
	for try := 0; try < 100; try++ {
		sc := next()
		req, err := encode(name, sc)
		if err != nil {
			return sc, err
		}
		if !g.seen[req.Key] {
			g.seen[req.Key] = true
			g.reqs = append(g.reqs, req)
			return sc, nil
		}
	}
	return dnnparallel.Scenario{}, fmt.Errorf("%s: no distinct question in 100 draws", name)
}

// encode marshals a scenario as sent and computes its canonical key.
func encode(name string, sc dnnparallel.Scenario) (request, error) {
	body, err := json.Marshal(sc)
	if err != nil {
		return request{}, fmt.Errorf("%s: %w", name, err)
	}
	key, err := sc.Canonical()
	if err != nil {
		return request{}, fmt.Errorf("%s: generated an invalid scenario: %w", name, err)
	}
	return request{Name: name, Body: body, Key: string(key)}, nil
}

func pick[T any](r *rand.Rand, xs ...T) T { return xs[r.Intn(len(xs))] }

// pureBatchWords returns the per-process footprint of the 1×P grid,
// where every layer strategy lays data out the same way.
func pureBatchWords(net string, B, P int) float64 {
	n, err := nn.Preset(net)
	if err != nil {
		panic(err) // the generators only name presets
	}
	g := grid.Grid{Pr: 1, Pc: P}
	return costmodel.Memory(n, B, g, costmodel.UniformAssignment(n, costmodel.Model)).TotalWords()
}

var flatProcs = []int{32, 64, 128, 256, 512, 1024, 2048, 4096}

// flatQuestion draws slot i of flat-paper. The slot fixes the network,
// the question kind and P, so every seed has the same mix; the seed
// picks the batch, mode, machine constants and options.
//
//	kind 0: plain iteration objective
//	kind 1: closed-form overlap and/or Eq. 6 redistribution
//	kind 2: a memory limit or a batch-parallelism cap
//	kind 3: time-to-accuracy over a batch_sizes list
func flatQuestion(r *rand.Rand, i int) dnnparallel.Scenario {
	net := nets[i%len(nets)]
	kind := (i / len(nets)) % 4
	P := flatProcs[(i/(4*len(nets)))%len(flatProcs)]
	sc := dnnparallel.Scenario{Network: net, Procs: P}
	shift := r.Intn(5) - 1 // B = P/2 … 8P
	if shift < 0 {
		sc.Batch = P / 2
	} else {
		sc.Batch = P << shift
	}
	if sc.Batch < P {
		sc.Mode = pick(r, dnnparallel.ModeAuto, dnnparallel.ModeUniform)
	} else {
		sc.Mode = pick(r, dnnparallel.ModeAuto, dnnparallel.ModeAuto, dnnparallel.ModeUniform,
			dnnparallel.ModeConvBatch, dnnparallel.ModeConvDomain)
	}
	if r.Intn(2) == 0 {
		sc.DatasetN = 1200000
	}
	if r.Intn(2) == 0 {
		sc.Machine = &dnnparallel.MachineSpec{
			AlphaSeconds: pick(r, 1e-6, 2e-6, 5e-6),
			BandwidthGBs: pick(r, 3.0, 6.0, 12.0, 25.0),
		}
	}
	switch kind {
	case 1:
		switch r.Intn(3) {
		case 0:
			sc.Overlap = true
		case 1:
			sc.AddRedistribution = true
		default:
			sc.Overlap, sc.AddRedistribution = true, true
		}
	case 2:
		if r.Intn(2) == 0 && sc.Batch >= P {
			// Just above the pure-batch footprint: 1×P stays feasible, and
			// every grid needing more memory is pruned.
			sc.MemoryLimitWords = pick(r, 1.01, 1.2, 1.5) * pureBatchWords(net, sc.Batch, P)
		} else {
			// Capping Pc forces Pr ≥ 2 … 8, more slabs than a deep
			// network's last conv layers have rows: no conv-domain here.
			sc.MaxBatchParallel = P >> (1 + r.Intn(3))
			sc.Mode = pick(r, dnnparallel.ModeAuto, dnnparallel.ModeUniform)
		}
	case 3:
		sc.Objective = dnnparallel.ObjectiveTimeToAccuracy
		sc.Mode = pick(r, dnnparallel.ModeAuto, dnnparallel.ModeUniform)
		for _, f := range []int{-2, -1, 1, 2, 3} {
			if r.Intn(2) == 0 {
				continue
			}
			b := sc.Batch << max(f, 0) >> max(-f, 0)
			if b >= 1 {
				sc.BatchSizes = append(sc.BatchSizes, b)
			}
		}
		if len(sc.BatchSizes) == 0 {
			sc.BatchSizes = []int{sc.Batch * 2}
		}
		if r.Intn(3) == 0 {
			sc.Convergence = &dnnparallel.ConvergenceSpec{CriticalB: pick(r, 1024.0, 4096.0, 16384.0)}
		}
	}
	return sc
}

var hierProcs = []int{64, 128, 256, 512, 1024, 2048, 4096, 512}

// jitter scales a link constant by 0.96 … 1.04 in steps of 0.01: enough
// to make each seed's questions distinct, too little to change how much
// of the search the bounds prune.
func jitter(r *rand.Rand, x float64) float64 { return x * (1 + 0.01*float64(r.Intn(9)-4)) }

// hierQuestion draws slot i of hier-topology: a two- or three-level
// machine, placements searched, no timeline. The slot fixes everything
// that sets the amount of pricing: P (capped at maxP), the depth, the
// network, the batch, the mode, the group sizes and each link's nominal
// α and bandwidth. The seed only jitters the links, so every seed asks
// distinct questions of about the same cost.
func hierQuestion(r *rand.Rand, i, maxP int) dnnparallel.Scenario {
	P := hierProcs[i%len(hierProcs)]
	for P > maxP {
		P /= 8
	}
	round := i / len(hierProcs)
	depth := 2 + round%2
	modes := []dnnparallel.Mode{dnnparallel.ModeAuto, dnnparallel.ModeAuto, dnnparallel.ModeUniform, dnnparallel.ModeConvDomain}
	sc := dnnparallel.Scenario{
		Network: nets[(i+round)%len(nets)],
		Procs:   P,
		Batch:   P << (round % 3),
		Mode:    modes[(i/2)%len(modes)],
	}
	node := []int{4, 8, 16, 32}[(i+round)%4]
	levels := []dnnparallel.LevelSpec{{
		Name:         "node",
		AlphaSeconds: jitter(r, []float64{2e-7, 5e-7, 1e-6}[i%3]),
		BandwidthGBs: jitter(r, []float64{25, 60, 100}[(i/3)%3]),
		GroupRanks:   node,
	}}
	if depth == 3 {
		levels = append(levels, dnnparallel.LevelSpec{
			Name:         "rack",
			AlphaSeconds: jitter(r, []float64{1e-6, 2e-6}[i%2]),
			BandwidthGBs: jitter(r, []float64{10, 12, 20}[(i/2)%3]),
			GroupRanks:   node * []int{2, 4, 8}[(i+round)%3],
		})
	}
	levels = append(levels, dnnparallel.LevelSpec{
		Name:         []string{"cluster", "spine"}[(i/4)%2],
		AlphaSeconds: jitter(r, []float64{2e-6, 3e-6, 5e-6}[(i+1)%3]),
		BandwidthGBs: jitter(r, []float64{3, 6, 8}[(i/3+1)%3]),
	})
	sc.Topology = &dnnparallel.TopologySpec{Levels: levels}
	if i%4 == 0 {
		sc.DatasetN = 1200000
	}
	return sc
}

// pipelineSlots fixes each pipeline-sim question's search space:
// network, stage count, P, batch, micro-batch candidates and mode, so
// every seed asks for about the same amount of simulation. With one
// planner worker on a 2-vCPU Xeon VM the questions cost 10–90 ms, and
// the median falls among several questions of nearly the same cost
// (about 28 ms) rather than in a gap between two, so host noise does not
// move it from one question to the next. A pass is short enough to be
// timed many times in one run.
var pipelineSlots = []struct {
	net    string
	stages int
	procs  int
	batch  int
	micros []int
	mode   dnnparallel.Mode
}{
	{"alexnet", 1, 4096, 8192, []int{1, 2, 4, 8}, dnnparallel.ModeUniform},
	{"alexnet", 2, 128, 512, []int{1, 2, 4, 8}, dnnparallel.ModeAuto},
	{"alexnet", 2, 256, 1024, []int{1, 2, 4}, dnnparallel.ModeAuto},
	{"alexnet", 2, 512, 2048, []int{1, 2, 4, 8}, dnnparallel.ModeAuto},
	{"alexnet", 4, 64, 256, []int{1, 4, 8}, dnnparallel.ModeAuto},
	{"alexnet", 4, 128, 1024, []int{4}, dnnparallel.ModeAuto},
	{"alexnet", 8, 256, 1024, []int{8, 16}, dnnparallel.ModeUniform},
	{"alexnet", 8, 512, 2048, []int{8, 16, 32}, dnnparallel.ModeAuto},
	{"alexnet", 8, 1024, 2048, []int{8, 16}, dnnparallel.ModeAuto},
	{"vgg16", 1, 256, 1024, []int{1, 2, 4, 8, 16}, dnnparallel.ModeUniform},
	{"vgg16", 2, 64, 256, []int{1, 2, 4}, dnnparallel.ModeUniform},
	{"vgg16", 2, 128, 512, []int{2, 4}, dnnparallel.ModeAuto},
	{"vgg16", 2, 256, 1024, []int{2, 4, 8}, dnnparallel.ModeAuto},
	{"vgg16", 4, 64, 512, []int{4, 8}, dnnparallel.ModeAuto},
	{"vgg16", 4, 128, 512, []int{4, 8}, dnnparallel.ModeAuto},
	{"vgg16", 8, 64, 512, []int{8}, dnnparallel.ModeAuto},
	{"vgg16", 8, 128, 512, []int{8, 16}, dnnparallel.ModeAuto},
	{"resnet50", 1, 64, 256, []int{1, 2, 4}, dnnparallel.ModeAuto},
	{"resnet50", 1, 256, 1024, []int{1, 2, 4, 8}, dnnparallel.ModeAuto},
	{"resnet50", 1, 1024, 4096, []int{1, 2, 4, 8}, dnnparallel.ModeUniform},
	{"resnet50", 4, 32, 128, []int{4}, dnnparallel.ModeAuto},
}

// pipelineQuestion draws slot i of pipeline-sim: a timeline-scored
// question on the flat machine. The slot list is cycled twice with the
// overlap policy and the schedule shape swapped on the second cycle. The
// machine's nominal links are fixed by i too; the seed only jitters
// them.
func pipelineQuestion(r *rand.Rand, i int) dnnparallel.Scenario {
	slot := pipelineSlots[i%len(pipelineSlots)]
	cycle := i / len(pipelineSlots)
	sc := dnnparallel.Scenario{
		Network:      slot.net,
		Procs:        slot.procs,
		Batch:        slot.batch,
		Mode:         slot.mode,
		Timeline:     true,
		Policy:       []dnnparallel.Policy{dnnparallel.PolicyBackprop, dnnparallel.PolicyFull}[(i+cycle)%2],
		Schedule:     []dnnparallel.Shape{dnnparallel.ScheduleGPipe, dnnparallel.ScheduleOneFOneB}[(i/2+cycle)%2],
		MicroBatches: slot.micros,
		Machine: &dnnparallel.MachineSpec{
			AlphaSeconds: jitter(r, []float64{1e-6, 2e-6, 3e-6, 5e-6}[i%4]),
			BandwidthGBs: jitter(r, []float64{3, 4.5, 6, 9, 12}[(i/4)%5]),
		},
	}
	if slot.stages > 1 {
		sc.Pipeline = &dnnparallel.PipelineSpec{Stages: slot.stages}
	}
	return sc
}

// repeatSpellings is the number of equivalent spellings serve-repeat
// sends of each question.
const repeatSpellings = 4

// repeatRequests builds serve-repeat: a fixed set of at most 128
// questions (the default cache capacity, so nothing is evicted) drawn
// from the flat and hierarchical generators, each sent under several
// equivalent spellings that share one canonical key. Requests are
// interleaved so consecutive requests ask different questions.
func repeatRequests(r *rand.Rand) ([]request, error) {
	g := &generator{seen: make(map[string]bool)}
	var base []dnnparallel.Scenario
	add := func(name string, next func() dnnparallel.Scenario) error {
		n := len(g.reqs)
		if _, err := g.addDistinct(name, next); err != nil {
			return err
		}
		sc, err := dnnparallel.DecodeScenario(g.reqs[n].Body)
		base = append(base, sc)
		return err
	}
	for i := 0; i < repeatFlat; i++ {
		if err := add(fmt.Sprintf("serve-repeat/%03d", len(base)), func() dnnparallel.Scenario { return flatQuestion(r, i) }); err != nil {
			return nil, err
		}
	}
	for i := 0; i < repeatHier; i++ {
		if err := add(fmt.Sprintf("serve-repeat/%03d", len(base)), func() dnnparallel.Scenario { return hierQuestion(r, i, 512) }); err != nil {
			return nil, err
		}
	}
	var out []request
	for v := 0; v < repeatSpellings; v++ {
		for qi, sc := range base {
			name := fmt.Sprintf("%s/%d", g.reqs[qi].Name, v)
			req, err := encode(name, respell(sc, v))
			if err != nil {
				return nil, err
			}
			if req.Key != g.reqs[qi].Key {
				return nil, fmt.Errorf("%s: spelling %d changes the canonical form", name, v)
			}
			out = append(out, req)
		}
	}
	return out, nil
}

// respell rewrites a scenario into equivalent spelling v (0 = as
// generated). Every spelling normalizes to the same canonical form.
func respell(sc dnnparallel.Scenario, v int) dnnparallel.Scenario {
	if v == 0 {
		return sc
	}
	out := sc
	if v == 1 || v == 3 {
		// A case-folded network name.
		out.Network = strings.ToUpper(sc.Network[:1]) + sc.Network[1:]
		if v == 3 {
			out.Network = strings.ToUpper(sc.Network)
		}
	}
	if v == 1 || v == 2 {
		// An unsorted, duplicated micro-batch list that reduces to the
		// implicit {1}, and the batch_sizes list reversed with a repeat.
		out.MicroBatches = []int{1, 1}
		if n := len(sc.BatchSizes); n > 0 {
			bs := make([]int, 0, n+1)
			for i := n - 1; i >= 0; i-- {
				bs = append(bs, sc.BatchSizes[i])
			}
			out.BatchSizes = append(bs, sc.BatchSizes[n-1])
		}
	}
	if v == 2 || v == 3 {
		// The stage count in its legacy sugar vs the pipeline block.
		if v == 2 {
			out.PipelineStages = 1
		} else {
			out.Pipeline = &dnnparallel.PipelineSpec{Stages: 1}
		}
	}
	if v >= 2 && sc.Topology != nil && len(sc.Topology.Levels) == 2 {
		// Two-level sugar in place of the levels list.
		lv := sc.Topology.Levels
		if lv[0].Name == "node" && lv[1].Name == "cluster" {
			out.Topology = &dnnparallel.TopologySpec{
				RanksPerNode: lv[0].GroupRanks,
				Intra:        &dnnparallel.LinkSpec{AlphaSeconds: lv[0].AlphaSeconds, BandwidthGBs: lv[0].BandwidthGBs},
				Inter:        &dnnparallel.LinkSpec{AlphaSeconds: lv[1].AlphaSeconds, BandwidthGBs: lv[1].BandwidthGBs},
			}
			if sc.Procs%lv[0].GroupRanks == 0 && v == 3 {
				out.Topology.Nodes = sc.Procs / lv[0].GroupRanks
			}
		}
	}
	return out
}
