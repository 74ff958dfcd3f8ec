package machine

import (
	"math"
	"strings"
	"testing"
)

func TestFlatIsUniformOneLevel(t *testing.T) {
	m := CoriKNL()
	topo := Flat(m)
	if !topo.Uniform() {
		t.Fatal("Flat topology must have identical link levels")
	}
	if topo.Depth() != 1 {
		t.Fatalf("Flat depth = %d, want 1", topo.Depth())
	}
	if topo.RanksPerNode() != 1 {
		t.Fatalf("Flat ranks/node = %d, want 1", topo.RanksPerNode())
	}
	if topo.IsZero() {
		t.Fatal("Flat(CoriKNL) is not the zero topology")
	}
	if got := topo.Machine(); got != m {
		t.Fatalf("round trip Machine() = %+v, want %+v", got, m)
	}
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestZeroTopology(t *testing.T) {
	var z Topology
	if !z.IsZero() {
		t.Fatal("zero value must report IsZero")
	}
	if z.Validate() == nil {
		t.Fatal("zero topology must fail validation")
	}
}

func TestCoriKNLNodesPreset(t *testing.T) {
	topo := CoriKNLNodes(4)
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	if topo.Depth() != 2 {
		t.Fatalf("depth = %d, want 2", topo.Depth())
	}
	if topo.RanksPerNode() != 4 {
		t.Fatalf("ranks/node = %d, want 4", topo.RanksPerNode())
	}
	if topo.Uniform() {
		t.Fatal("preset must be genuinely two-level")
	}
	m := CoriKNL()
	if topo.Inter().Alpha != m.Alpha || topo.Inter().Beta != m.Beta {
		t.Fatalf("inter level %+v must match the Table 1 Aries constants", topo.Inter())
	}
	if topo.Intra().Beta >= topo.Inter().Beta {
		t.Fatal("intra-node link must be faster than the Aries link")
	}
	// The illustrative preset puts 10× the Aries bandwidth inside a node.
	if r := topo.Intra().BandwidthBytes() / topo.Inter().BandwidthBytes(); r < 9.99 || r > 10.01 {
		t.Fatalf("intra/inter bandwidth ratio = %g, want 10", r)
	}
}

// TestTwoLevelConstructor: TwoLevel reproduces the pre-refactor
// Intra/Inter struct exactly — same links at the accessor surface, the
// node level sized to ranksPerNode, the cluster level unbounded.
func TestTwoLevelConstructor(t *testing.T) {
	intra := Link{Alpha: 5e-7, Beta: WordBytes / 60e9}
	inter := Link{Alpha: 2e-6, Beta: WordBytes / 6e9}
	topo := TwoLevel("demo", intra, inter, 8, 3e12)
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	if topo.Intra() != intra || topo.Inter() != inter {
		t.Fatalf("accessors %+v/%+v, want %+v/%+v", topo.Intra(), topo.Inter(), intra, inter)
	}
	if got := topo.GroupSizes(); len(got) != 2 || got[0] != 8 || got[1] != 0 {
		t.Fatalf("GroupSizes = %v, want [8 0]", got)
	}
	if got := topo.LevelNames(); got[0] != "node" || got[1] != "cluster" {
		t.Fatalf("LevelNames = %v, want [node cluster]", got)
	}
}

func TestGroupOf(t *testing.T) {
	topo := CoriKNLNodes(4)
	for rank, want := range map[int]int{0: 0, 3: 0, 4: 1, 7: 1, 8: 2} {
		if got := topo.GroupOf(rank, 0); got != want {
			t.Fatalf("GroupOf(%d, 0) = %d, want %d", rank, got, want)
		}
	}
	// The outermost level is one group spanning the whole machine.
	for _, rank := range []int{0, 7, 1000} {
		if got := topo.GroupOf(rank, 1); got != 0 {
			t.Fatalf("GroupOf(%d, 1) = %d, want 0", rank, got)
		}
	}
}

func TestTopologyValidateRejectsNonPhysical(t *testing.T) {
	good := CoriKNLNodes(4)
	three := Topology{
		Name: "three",
		Levels: []Level{
			{Name: "node", Link: Link{Alpha: 5e-7, Beta: WordBytes / 60e9}, GroupSize: 4},
			{Name: "rack", Link: Link{Alpha: 1e-6, Beta: WordBytes / 12e9}, GroupSize: 64},
			{Name: "spine", Link: Link{Alpha: 2e-6, Beta: WordBytes / 6e9}},
		},
		PeakFlops: 3e12,
	}
	if err := three.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := map[string]func(*Topology){
		"negIntraAlpha": func(t *Topology) { t.Levels[0].Link.Alpha = -1 },
		"zeroInterBeta": func(t *Topology) { t.Levels[len(t.Levels)-1].Link.Beta = 0 },
		"zeroPPN":       func(t *Topology) { t.Levels[0].GroupSize = 0 },
		"negPeak":       func(t *Topology) { t.PeakFlops = -1 },
		"NaNIntraAlpha": func(t *Topology) { t.Levels[0].Link.Alpha = math.NaN() },
		"infInterAlpha": func(t *Topology) { t.Levels[len(t.Levels)-1].Link.Alpha = math.Inf(1) },
		"NaNIntraBeta":  func(t *Topology) { t.Levels[0].Link.Beta = math.NaN() },
		"infInterBeta":  func(t *Topology) { t.Levels[len(t.Levels)-1].Link.Beta = math.Inf(1) },
		"NaNPeak":       func(t *Topology) { t.PeakFlops = math.NaN() },
		"boundedTop":    func(t *Topology) { t.Levels[len(t.Levels)-1].GroupSize = 128 },
	}
	for name, mutate := range cases {
		for _, base := range []Topology{good, three} {
			topo := base
			topo.Levels = append([]Level(nil), base.Levels...)
			mutate(&topo)
			if topo.Validate() == nil {
				t.Fatalf("%s should fail validation on %s", name, base.Name)
			}
		}
	}
	// Group sizes must grow outward as multiples: a middle level that is
	// smaller than the inner one, or not a multiple of it, is rejected.
	for name, groupSize := range map[string]int{"shrinking": 2, "nonMultiple": 66} {
		bad := three
		bad.Levels = append([]Level(nil), three.Levels...)
		bad.Levels[1].GroupSize = groupSize
		if bad.Validate() == nil {
			t.Fatalf("%s rack size %d should fail validation", name, groupSize)
		}
	}
	// Depth is capped at MaxLevels.
	deep := Topology{Name: "deep", PeakFlops: 1}
	for i := 0; i <= MaxLevels; i++ {
		gs := 1 << i
		if i == MaxLevels {
			gs = 0
		}
		deep.Levels = append(deep.Levels, Level{Link: Link{Beta: 1}, GroupSize: gs})
	}
	if deep.Validate() == nil {
		t.Fatalf("%d levels should exceed the MaxLevels=%d cap", len(deep.Levels), MaxLevels)
	}
}

func TestTopologyString(t *testing.T) {
	s := CoriKNLNodes(4).String()
	for _, want := range []string{"node[4 ranks]", "cluster", "GB/s"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q missing %q", s, want)
		}
	}
	// The flat embedding renders exactly like the machine it wraps.
	if got, want := Flat(CoriKNL()).String(), CoriKNL().String(); got != want {
		t.Fatalf("Flat String() = %q, want %q", got, want)
	}
}
