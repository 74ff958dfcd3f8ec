package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"dnnparallel/internal/grid"
	"dnnparallel/internal/machine"
	"dnnparallel/internal/planner"
	"dnnparallel/internal/timeline"
)

// variants is the spec matrix the round-trip tests sweep: the paper's
// headline flat scenario, the two-level topology scenario, and the
// pipeline search scenario.
func variants() map[string]Scenario {
	flat := Default()
	topo := Default()
	topo.Procs = 1024
	topo.Topology = &TopologySpec{Nodes: 64, RanksPerNode: 16}
	pipe := Default()
	pipe.Timeline = true
	pipe.Policy = timeline.PolicyBackprop
	pipe.MicroBatches = []int{1, 2, 4, 8}
	pipe.Schedule = timeline.OneFOneB
	staged := Default()
	staged.MicroBatches = []int{1, 2, 4}
	staged.Schedule = timeline.OneFOneB
	staged.Pipeline = &PipelineSpec{Stages: 2, Partition: &PartitionSpec{Cuts: []int{6}}}
	tta := Default()
	tta.Batch = 512
	tta.Objective = planner.TimeToAccuracy
	tta.BatchSizes = []int{256, 512, 2048}
	tta.Convergence = &ConvergenceSpec{Preset: "vgg16", StepsAtB1: 1.5e8}
	return map[string]Scenario{"flat": flat, "topology": topo, "pipeline": pipe, "staged": staged, "tta": tta}
}

// TestConvergenceCanonicalization pins the respell rules that make the
// dnnserve cache key stable: case-folded presets, a preset equal to the
// scenario's own network, and explicit parameters equal to the effective
// preset all collapse to the same canonical bytes as the bare spelling.
func TestConvergenceCanonicalization(t *testing.T) {
	bare := Default()
	bare.Batch = 512
	bare.Objective = planner.TimeToAccuracy
	bare.BatchSizes = []int{256, 512, 2048}
	want, err := bare.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	spellings := map[string]*ConvergenceSpec{
		"preset-own-network": {Preset: "alexnet"},
		"preset-case-folded": {Preset: " AlexNet "},
		"explicit-eq-preset": {StepsAtB1: 1.08e8, CriticalB: 2048, Exponent: 2},
		"both":               {Preset: "ALEXNET", StepsAtB1: 1.08e8, CriticalB: 2048, Exponent: 2},
	}
	for name, conv := range spellings {
		t.Run(name, func(t *testing.T) {
			alt := bare
			alt.Convergence = conv
			got, err := alt.Canonical()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(want, got) {
				t.Fatalf("respelled convergence block changed the canonical bytes:\n want %s\n  got %s", want, got)
			}
		})
	}
	// A genuinely different curve must NOT collapse to the bare spelling.
	alt := bare
	alt.Convergence = &ConvergenceSpec{StepsAtB1: 9e7}
	got, err := alt.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(want, got) {
		t.Fatal("a different convergence curve canonicalized to the preset spelling")
	}
	// The effective curve is the preset with the override applied.
	curve, err := alt.ConvergenceCurve()
	if err != nil {
		t.Fatal(err)
	}
	if curve.StepsAtB1 != 9e7 || curve.CriticalB != 2048 || curve.Exponent != 2 {
		t.Fatalf("override curve = %+v, want preset with StepsAtB1=9e7", curve)
	}
}

// TestJSONRoundTripBitExact: marshal → unmarshal → marshal must be
// byte-identical for every variant, both compact and indented — the
// acceptance criterion that makes a Scenario a stable wire format.
func TestJSONRoundTripBitExact(t *testing.T) {
	for name, sc := range variants() {
		t.Run(name, func(t *testing.T) {
			n := sc.Normalize()
			first, err := json.Marshal(n)
			if err != nil {
				t.Fatalf("marshal: %v", err)
			}
			back, err := Decode(first)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			second, err := json.Marshal(back)
			if err != nil {
				t.Fatalf("re-marshal: %v", err)
			}
			if !bytes.Equal(first, second) {
				t.Fatalf("round trip not bit-exact:\n first %s\nsecond %s", first, second)
			}
			if !reflect.DeepEqual(n, back) {
				t.Fatalf("decoded scenario differs: %+v vs %+v", n, back)
			}
		})
	}
}

// TestGoldenScenarioFiles pins the example scenario files (the CI smoke
// inputs and README examples) to the canonical indented JSON form: each
// file must already be normalized, decode cleanly, and re-render
// byte-identically. Spec-format drift therefore fails the push.
func TestGoldenScenarioFiles(t *testing.T) {
	dir := filepath.Join("..", "..", "examples", "scenarios")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("examples/scenarios: %v", err)
	}
	if len(entries) < 3 {
		t.Fatalf("expected at least 3 golden scenario files, found %d", len(entries))
	}
	for _, e := range entries {
		e := e
		t.Run(e.Name(), func(t *testing.T) {
			path := filepath.Join(dir, e.Name())
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			sc, err := Load(path)
			if err != nil {
				t.Fatalf("load: %v", err)
			}
			norm := sc.Normalize()
			if !reflect.DeepEqual(sc, norm) {
				t.Errorf("golden file is not normalized: %+v vs %+v", sc, norm)
			}
			if err := norm.Validate(); err != nil {
				t.Fatalf("golden file does not validate: %v", err)
			}
			canon, err := json.MarshalIndent(norm, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			canon = append(canon, '\n')
			if !bytes.Equal(raw, canon) {
				t.Errorf("golden file drifted from canonical form:\n--- file ---\n%s--- canonical ---\n%s", raw, canon)
			}
			if _, err := norm.Resolve(); err != nil {
				t.Errorf("golden file does not resolve: %v", err)
			}
		})
	}
}

// TestNormalize covers every canonicalization rule.
func TestNormalize(t *testing.T) {
	s := Default()
	s.Network = "  AlexNet "
	s.MicroBatches = []int{8, 2, 2, 4, 1, 8}
	s.Placements = []grid.Placement{grid.ColMajor, grid.RowMajor, grid.ColMajor}
	s.Grid = " 8X64 "
	n := s.Normalize()
	if n.Network != "alexnet" {
		t.Errorf("network not canonicalized: %q", n.Network)
	}
	if want := []int{1, 2, 4, 8}; !reflect.DeepEqual(n.MicroBatches, want) {
		t.Errorf("micro batches = %v, want %v", n.MicroBatches, want)
	}
	if !n.Timeline {
		t.Error("micro batches > 1 must imply timeline scoring")
	}
	if want := []grid.Placement{grid.RowMajor, grid.ColMajor}; !reflect.DeepEqual(n.Placements, want) {
		t.Errorf("placements = %v, want %v", n.Placements, want)
	}
	if n.Grid != "8x64" {
		t.Errorf("grid not canonicalized: %q", n.Grid)
	}
	if !reflect.DeepEqual(n.Normalize(), n) {
		t.Error("Normalize is not idempotent")
	}

	// {1} degenerates to the implicit default.
	s2 := Default()
	s2.MicroBatches = []int{1, 1}
	if n2 := s2.Normalize(); n2.MicroBatches != nil || n2.Timeline {
		t.Errorf("micro {1,1} should normalize away, got %v timeline=%v", n2.MicroBatches, n2.Timeline)
	}

	// Timeline subsumes the closed-form overlap flag.
	s3 := Default()
	s3.Overlap = true
	s3.Timeline = true
	if n3 := s3.Normalize(); n3.Overlap {
		t.Error("timeline scoring should clear the closed-form overlap flag")
	}

	// Topology derives procs and nodes.
	s4 := Default()
	s4.Procs = 0
	s4.Topology = &TopologySpec{Nodes: 32, RanksPerNode: 16}
	if n4 := s4.Normalize(); n4.Procs != 512 {
		t.Errorf("procs not derived from topology: %d", n4.Procs)
	}
	// The two-level sugar canonicalizes onto the levels list, defaults
	// materialized, sugar fields cleared.
	s5 := Default()
	s5.Procs = 512
	s5.Topology = &TopologySpec{RanksPerNode: 16}
	n5 := s5.Normalize()
	if n5.Topology.RanksPerNode != 0 || n5.Topology.Nodes != 0 || n5.Topology.Intra != nil || n5.Topology.Inter != nil {
		t.Errorf("sugar fields should canonicalize away: %+v", n5.Topology)
	}
	want5 := []LevelSpec{
		{Name: "node", AlphaSeconds: 5e-7, BandwidthGBs: 60, GroupRanks: 16},
		{Name: "cluster", AlphaSeconds: 2e-6, BandwidthGBs: 6},
	}
	if !reflect.DeepEqual(n5.Topology.Levels, want5) {
		t.Errorf("canonical levels = %+v, want %+v", n5.Topology.Levels, want5)
	}

	// Inconsistent sugar is left alone for Validate to report.
	s6 := Default()
	s6.Procs = 512
	s6.Topology = &TopologySpec{Nodes: 3, RanksPerNode: 16}
	if n6 := s6.Normalize(); len(n6.Topology.Levels) != 0 || n6.Topology.Nodes != 3 {
		t.Errorf("conflicting sugar must not canonicalize: %+v", n6.Topology)
	}

	// Empty level names fill positionally.
	s7 := Default()
	s7.Procs = 64
	s7.Topology = &TopologySpec{Levels: []LevelSpec{
		{AlphaSeconds: 5e-7, BandwidthGBs: 60, GroupRanks: 4},
		{Name: "spine", AlphaSeconds: 2e-6, BandwidthGBs: 6},
	}}
	if n7 := s7.Normalize(); n7.Topology.Levels[0].Name != "l0" || n7.Topology.Levels[1].Name != "spine" {
		t.Errorf("empty level names should fill as l<i>: %+v", n7.Topology.Levels)
	}
}

// TestCanonicalKey: scenarios describing the same question must share
// canonical bytes regardless of spelling — the dnnserve cache contract.
func TestCanonicalKey(t *testing.T) {
	a := Default()
	a.MicroBatches = []int{8, 4, 2}
	a.Timeline = true
	b := Default()
	b.Network = "ALEXNET"
	b.MicroBatches = []int{2, 2, 4, 8}
	ka, err := a.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	kb, err := b.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ka, kb) {
		t.Fatalf("canonical keys differ:\n%s\n%s", ka, kb)
	}
	c := Default()
	c.Batch = 1024
	kc, err := c.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(ka, kc) {
		t.Fatal("different scenarios share a canonical key")
	}

	// The two topology spellings of one machine share a canonical key:
	// respelling a cached scenario must hit the same dnnserve entry.
	sugar := Default()
	sugar.Procs = 1024
	sugar.Topology = &TopologySpec{Nodes: 64, RanksPerNode: 16}
	levels := Default()
	levels.Procs = 1024
	levels.Topology = &TopologySpec{Levels: []LevelSpec{
		{Name: "node", AlphaSeconds: 5e-7, BandwidthGBs: 60, GroupRanks: 16},
		{Name: "cluster", AlphaSeconds: 2e-6, BandwidthGBs: 6},
	}}
	ks, err := sugar.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	kl, err := levels.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ks, kl) {
		t.Fatalf("topology respelling changed the canonical key:\n%s\n%s", ks, kl)
	}
}

// TestValidateErrors drives every typed-error path and checks the field
// names a client would key on.
func TestValidateErrors(t *testing.T) {
	cases := map[string]struct {
		mutate func(*Scenario)
		field  string
	}{
		"unknown network": {func(s *Scenario) { s.Network = "lenet" }, "network"},
		"zero batch":      {func(s *Scenario) { s.Batch = 0 }, "batch"},
		"negative batch":  {func(s *Scenario) { s.Batch = -8 }, "batch"},
		"zero procs":      {func(s *Scenario) { s.Procs = 0 }, "procs"},
		"negative data":   {func(s *Scenario) { s.DatasetN = -1 }, "dataset_n"},
		"machine and topology": {func(s *Scenario) {
			s.Machine = &MachineSpec{AlphaSeconds: 1e-6}
			s.Topology = &TopologySpec{RanksPerNode: 16}
		}, "machine"},
		"bad machine": {func(s *Scenario) { s.Machine = &MachineSpec{BandwidthGBs: -1} }, "machine"},
		"bad ranks per node": {func(s *Scenario) {
			s.Topology = &TopologySpec{RanksPerNode: 0}
		}, "topology.ranks_per_node"},
		"nodes conflict": {func(s *Scenario) {
			s.Topology = &TopologySpec{Nodes: 3, RanksPerNode: 16}
		}, "topology.nodes"},
		"mixed topology spellings": {func(s *Scenario) {
			s.Topology = &TopologySpec{RanksPerNode: 16, Levels: []LevelSpec{
				{AlphaSeconds: 1e-6, BandwidthGBs: 6},
			}}
		}, "topology.levels"},
		"level without bandwidth": {func(s *Scenario) {
			s.Topology = &TopologySpec{Levels: []LevelSpec{
				{AlphaSeconds: 1e-6, GroupRanks: 4},
				{AlphaSeconds: 1e-6, BandwidthGBs: 6},
			}}
		}, "topology.levels"},
		"too many levels": {func(s *Scenario) {
			lv := make([]LevelSpec, machine.MaxLevels+1)
			for i := range lv {
				lv[i] = LevelSpec{AlphaSeconds: 1e-6, BandwidthGBs: 6, GroupRanks: 1 << uint(i)}
			}
			lv[len(lv)-1].GroupRanks = 0
			s.Topology = &TopologySpec{Levels: lv}
		}, "topology.levels"},
		"non-multiple level sizes": {func(s *Scenario) {
			s.Topology = &TopologySpec{Levels: []LevelSpec{
				{AlphaSeconds: 1e-6, BandwidthGBs: 60, GroupRanks: 4},
				{AlphaSeconds: 1e-6, BandwidthGBs: 12, GroupRanks: 6},
				{AlphaSeconds: 1e-6, BandwidthGBs: 6},
			}}
		}, "topology"},
		// A bandwidth too small to invert overflows β to +Inf, and NaN
		// passes every sign check: both must be validation errors, not
		// panics or an empty feasible set at pricing time.
		"overflowing machine bandwidth": {func(s *Scenario) {
			s.Machine = &MachineSpec{BandwidthGBs: 1e-320}
		}, "machine"},
		"NaN machine latency": {func(s *Scenario) {
			s.Machine = &MachineSpec{AlphaSeconds: math.NaN()}
		}, "machine"},
		"overflowing level bandwidth": {func(s *Scenario) {
			s.Topology = &TopologySpec{Levels: []LevelSpec{
				{AlphaSeconds: 5e-7, BandwidthGBs: 1e-320, GroupRanks: 16},
				{AlphaSeconds: 2e-6, BandwidthGBs: 6},
			}}
		}, "topology"},
		"NaN level latency": {func(s *Scenario) {
			s.Topology = &TopologySpec{Levels: []LevelSpec{
				{AlphaSeconds: math.NaN(), BandwidthGBs: 60, GroupRanks: 16},
				{AlphaSeconds: 2e-6, BandwidthGBs: 6},
			}}
		}, "topology"},
		"bad mode":       {func(s *Scenario) { s.Mode = planner.Mode(99) }, "mode"},
		"bad policy":     {func(s *Scenario) { s.Policy = timeline.Policy(99) }, "policy"},
		"bad schedule":   {func(s *Scenario) { s.Schedule = timeline.Shape(99) }, "schedule"},
		"bad placement":  {func(s *Scenario) { s.Placements = []grid.Placement{grid.Placement(99)} }, "placements"},
		"zero micro":     {func(s *Scenario) { s.MicroBatches = []int{0} }, "micro_batches"},
		"negative micro": {func(s *Scenario) { s.MicroBatches = []int{-2} }, "micro_batches"},
		"micro sans timeline": {func(s *Scenario) {
			s.MicroBatches = []int{4} // hand-built, not normalized
		}, "micro_batches"},
		"negative stages":  {func(s *Scenario) { s.PipelineStages = -1 }, "pipeline_stages"},
		"negative memory":  {func(s *Scenario) { s.MemoryLimitWords = -1 }, "memory_limit_words"},
		"negative max pc":  {func(s *Scenario) { s.MaxBatchParallel = -1 }, "max_batch_parallel"},
		"malformed grid":   {func(s *Scenario) { s.Grid = "8by64" }, "grid"},
		"grid procs clash": {func(s *Scenario) { s.Grid = "8x8" }, "grid"},
		"no micro divides B": {func(s *Scenario) {
			s.Batch = 100
			s.Timeline = true
			s.MicroBatches = []int{3, 7}
		}, "micro_batches"},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			s := Default()
			tc.mutate(&s)
			err := s.Validate()
			if err == nil {
				t.Fatal("expected a validation error")
			}
			var ve *ValidationError
			if !errors.As(err, &ve) {
				t.Fatalf("error is %T, want *ValidationError", err)
			}
			if ve.Field != tc.field {
				t.Errorf("field = %q, want %q (%v)", ve.Field, tc.field, err)
			}
		})
	}
	if err := Default().Validate(); err != nil {
		t.Fatalf("default scenario must validate, got %v", err)
	}
}

// TestDecodeRejectsUnknownFields: a typo must not silently plan a
// different scenario.
func TestDecodeRejectsUnknownFields(t *testing.T) {
	_, err := Decode([]byte(`{"network":"alexnet","batch":2048,"procs":512,"modee":"auto"}`))
	var ve *ValidationError
	if !errors.As(err, &ve) || ve.Field != "json" {
		t.Fatalf("expected a json ValidationError, got %v", err)
	}
	if _, err := Decode([]byte(`{broken`)); err == nil {
		t.Fatal("expected a decode error")
	}
}

// TestResolve checks the lowering: defaults, machine overrides, the
// topology-derived flat machine view, and the pinned grid.
func TestResolve(t *testing.T) {
	r, err := Default().Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if r.Net.Name != "AlexNet" || r.Batch != 2048 || r.Procs != 512 || r.Grid != nil {
		t.Fatalf("unexpected resolution: %+v", r)
	}
	if r.Options.Machine != machine.CoriKNL() {
		t.Errorf("default machine should be Cori-KNL, got %+v", r.Options.Machine)
	}
	if r.Options.Compute != DefaultCompute() {
		t.Errorf("default compute model drifted: %+v", r.Options.Compute)
	}

	s := Default()
	s.Machine = &MachineSpec{AlphaSeconds: 1e-6, BandwidthGBs: 12, PeakTFlops: 6}
	r2, err := s.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	m := r2.Options.Machine
	if m.Alpha != 1e-6 || m.BandwidthBytes() != 12e9 || m.PeakFlops != 6e12 {
		t.Errorf("machine overrides not applied: %+v", m)
	}
	if r2.Options.Compute.Peak != 6e12 {
		t.Errorf("compute peak should follow the machine override, got %g", r2.Options.Compute.Peak)
	}

	st := Default()
	st.Procs = 1024
	st.Topology = &TopologySpec{Nodes: 64, RanksPerNode: 16}
	r3, err := st.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if r3.Options.Topology.IsZero() || r3.Options.Topology.RanksPerNode() != 16 {
		t.Fatalf("topology not resolved: %+v", r3.Options.Topology)
	}
	if want := r3.Options.Topology.Machine(); r3.Options.Machine != want {
		t.Errorf("flat machine view should derive from the topology: %+v vs %+v", r3.Options.Machine, want)
	}
	if !reflect.DeepEqual(r3.Options.Topology, machine.CoriKNLNodes(16)) {
		t.Errorf("canonicalized sugar should resolve to the Cori two-level setting bit for bit:\n%+v\n%+v",
			r3.Options.Topology, machine.CoriKNLNodes(16))
	}

	// A hand-written three-level list resolves level by level.
	s3l := Default()
	s3l.Topology = &TopologySpec{Levels: []LevelSpec{
		{Name: "node", AlphaSeconds: 5e-7, BandwidthGBs: 60, GroupRanks: 8},
		{Name: "rack", AlphaSeconds: 1e-6, BandwidthGBs: 12, GroupRanks: 64},
		{Name: "spine", AlphaSeconds: 2e-6, BandwidthGBs: 6},
	}}
	r3l, err := s3l.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	topo := r3l.Options.Topology
	if topo.Depth() != 3 || topo.Levels[1].Name != "rack" || topo.Levels[1].GroupSize != 64 {
		t.Fatalf("three-level topology not resolved: %+v", topo)
	}
	if bw := topo.Levels[1].Link.BandwidthBytes(); math.Abs(bw-12e9) > 1 {
		t.Fatalf("rack bandwidth = %g, want 12 GB/s", bw)
	}
	if topo.Uniform() {
		t.Fatal("tapered three-level topology must not classify Uniform")
	}

	sg := Default()
	sg.Grid = "8x64"
	r4, err := sg.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if r4.Grid == nil || (*r4.Grid != grid.Grid{Pr: 8, Pc: 64}) {
		t.Fatalf("pinned grid not resolved: %v", r4.Grid)
	}
}

// TestSearchSpec covers the search block: normalization drops the
// defaults, validation rejects negative workers, and Resolve lowers the
// knobs onto planner.Options. The block tunes only how the search runs,
// never which plan it returns.
func TestSearchSpec(t *testing.T) {
	on := true
	off := false

	// Explicit defaults normalize away entirely.
	s := Default()
	s.Search = &SearchSpec{Bounds: &on}
	if n := s.Normalize(); n.Search != nil {
		t.Fatalf("default search block should normalize away, got %+v", n.Search)
	}

	// Non-defaults survive, with the redundant true dropped.
	s.Search = &SearchSpec{Workers: 4, Bounds: &on}
	n := s.Normalize()
	if n.Search == nil || n.Search.Workers != 4 || n.Search.Bounds != nil {
		t.Fatalf("normalize mangled the search block: %+v", n.Search)
	}
	if n2 := n.Normalize(); !reflect.DeepEqual(n, n2) {
		t.Fatal("normalize is not idempotent on the search block")
	}

	s.Search = &SearchSpec{Workers: -1}
	var verr *ValidationError
	if err := s.Normalize().Validate(); !errors.As(err, &verr) || verr.Field != "search.workers" {
		t.Fatalf("negative workers should fail validation, got %v", err)
	}

	s.Search = &SearchSpec{Workers: 2, Bounds: &off}
	r, err := s.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if r.Options.Workers != 2 || !r.Options.DisableBounds {
		t.Fatalf("search block not lowered: workers=%d disableBounds=%v",
			r.Options.Workers, r.Options.DisableBounds)
	}

	// Absent block ⇒ engine defaults: GOMAXPROCS workers, bounds on.
	r0, err := Default().Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if r0.Options.Workers != 0 || r0.Options.DisableBounds {
		t.Fatalf("default should leave Workers=0 and bounds on: %+v", r0.Options)
	}

	// The block round-trips through JSON.
	data, err := json.Marshal(s.Normalize())
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Search == nil || back.Search.Workers != 2 || back.Search.Bounds == nil || *back.Search.Bounds {
		t.Fatalf("search block lost in round-trip: %+v", back.Search)
	}
}
