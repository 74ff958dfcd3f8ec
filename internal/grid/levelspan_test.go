package grid

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dnnparallel/internal/machine"
)

// oracleSpans classifies one group family the general way: every group's
// machine ranks enumerated explicitly, classified by SpanOf, deduped.
func oracleSpans(g Grid, sizes []int, pl Placement, offset int, cols bool) []LevelSpan {
	outer, inner := g.Pr, g.Pc // row groups: Pr groups of Pc ranks
	if cols {
		outer, inner = g.Pc, g.Pr
	}
	spans := make([]LevelSpan, 0, outer)
	for a := 0; a < outer; a++ {
		ranks := make([]int, inner)
		for b := range ranks {
			r, c := a, b
			if cols {
				r, c = b, a
			}
			ranks[b] = offset + g.MachineRank(r, c, pl)
		}
		spans = append(spans, SpanOf(ranks, sizes))
	}
	return dedupeSpans(spans)
}

// oracleAll classifies the grid's whole rank block with SpanOf.
func oracleAll(g Grid, sizes []int, offset int) LevelSpan {
	ranks := make([]int, g.P())
	for i := range ranks {
		ranks[i] = offset + i
	}
	return SpanOf(ranks, sizes)
}

// oracleNeighbors scans every pair of vertically adjacent processes of
// every column group for the innermost level holding both.
func oracleNeighbors(g Grid, sizes []int, pl Placement, offset int) int {
	level := 0
	for c := 0; c < g.Pc; c++ {
		for r := 0; r+1 < g.Pr; r++ {
			a := offset + g.MachineRank(r, c, pl)
			b := offset + g.MachineRank(r+1, c, pl)
			l := 0
			for l < len(sizes)-1 && levelUnit(a, sizes[l]) != levelUnit(b, sizes[l]) {
				l++
			}
			level = max(level, l)
		}
	}
	return level
}

// checkOracle compares every *SpanAt result with its oracle.
func checkOracle(t *testing.T, g Grid, sizes []int, pl Placement, offset int) {
	t.Helper()
	where := fmt.Sprintf("%v sizes %v %v offset %d", g, sizes, pl, offset)
	if got, want := g.ColGroupSpansAt(sizes, pl, offset), oracleSpans(g, sizes, pl, offset, true); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: ColGroupSpansAt = %+v, SpanOf oracle %+v", where, got, want)
	}
	if got, want := g.RowGroupSpansAt(sizes, pl, offset), oracleSpans(g, sizes, pl, offset, false); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: RowGroupSpansAt = %+v, SpanOf oracle %+v", where, got, want)
	}
	if got, want := g.AllSpanAt(sizes, offset), oracleAll(g, sizes, offset); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: AllSpanAt = %+v, SpanOf oracle %+v", where, got, want)
	}
	if got, want := g.ColNeighborsLevelAt(sizes, pl, offset), oracleNeighbors(g, sizes, pl, offset); got != want {
		t.Fatalf("%s: ColNeighborsLevelAt = %d, pairwise scan %d", where, got, want)
	}
}

// nestedSizes decodes a hierarchy from bytes: an innermost size of
// b[0]+1, each further level b[i]%8+1 times its inner neighbour, at most
// machine.MaxLevels levels in all, the outermost unbounded (0) unless
// bounded is set.
func nestedSizes(b []byte, bounded bool) []int {
	if len(b) == 0 {
		b = []byte{0}
	}
	if len(b) > machine.MaxLevels-1 {
		b = b[:machine.MaxLevels-1]
	}
	sizes := []int{int(b[0]) + 1}
	for _, m := range b[1:] {
		sizes = append(sizes, sizes[len(sizes)-1]*(int(m)%8+1))
	}
	if !bounded {
		sizes = append(sizes, 0)
	}
	return sizes
}

// encodeSizes is nestedSizes' inverse for a nested hierarchy whose
// innermost size is at most 256 and whose level ratios are at most 8.
func encodeSizes(sizes []int) []byte {
	b := []byte{byte(sizes[0] - 1)}
	for i := 1; i < len(sizes) && sizes[i] > 0; i++ {
		b = append(b, byte(sizes[i]/sizes[i-1]-1))
	}
	return b
}

// TestLevelSpansMatchOracle draws random nested hierarchies (unbounded
// and bounded outermost level), grids, placements and offsets, and checks
// the arithmetic classification against the SpanOf oracle.
func TestLevelSpansMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 3000; i++ {
		b := make([]byte, 1+rng.Intn(machine.MaxLevels-1))
		for j := range b {
			b[j] = byte(rng.Intn(8))
		}
		if rng.Intn(2) == 0 {
			b[0] = byte(rng.Intn(24))
		}
		sizes := nestedSizes(b, rng.Intn(4) == 0)
		g := Grid{Pr: 1 + rng.Intn(24), Pc: 1 + rng.Intn(24)}
		offset := rng.Intn(3 * (spanPeriod(sizes) + g.P()))
		for _, pl := range Placements() {
			checkOracle(t, g, sizes, pl, offset)
		}
	}
}

// scenarioSizes returns the level group sizes and process count of every
// example scenario that names a hierarchical topology.
func scenarioSizes(tb testing.TB) (sizes [][]int, procs []int) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "scenarios", "*.json"))
	if err != nil || len(paths) == 0 {
		tb.Fatalf("no example scenarios: %v", err)
	}
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			tb.Fatal(err)
		}
		var sc struct {
			Procs    int `json:"procs"`
			Topology *struct {
				Levels []struct {
					GroupRanks int `json:"group_ranks"`
				} `json:"levels"`
				RanksPerNode int `json:"ranks_per_node"`
			} `json:"topology"`
		}
		if err := json.Unmarshal(raw, &sc); err != nil {
			tb.Fatalf("%s: %v", p, err)
		}
		if sc.Topology == nil {
			continue
		}
		var s []int
		for _, lv := range sc.Topology.Levels {
			s = append(s, lv.GroupRanks)
		}
		if len(s) == 0 && sc.Topology.RanksPerNode > 0 {
			s = []int{sc.Topology.RanksPerNode, 0}
		}
		if len(s) > 1 {
			sizes, procs = append(sizes, s), append(procs, sc.Procs)
		}
	}
	if len(sizes) == 0 {
		tb.Fatal("no example scenario names a hierarchical topology")
	}
	return sizes, procs
}

// FuzzLevelSpan checks every *SpanAt result against the SpanOf oracle on
// fuzzed nested hierarchies, grids (each side 1–64), both placements
// and offsets, seeded with the example scenarios' topologies.
func FuzzLevelSpan(f *testing.F) {
	sizes, procs := scenarioSizes(f)
	for i, s := range sizes {
		for _, g := range Factorizations(procs[i]) {
			if g.Pr <= 64 && g.Pc <= 64 {
				f.Add(encodeSizes(s), uint8(g.Pr-1), uint8(g.Pc-1), uint16(0), false)
				f.Add(encodeSizes(s), uint8(g.Pr-1), uint8(g.Pc-1), uint16(g.P()/3), false)
			}
		}
	}
	f.Add([]byte{5, 2}, uint8(2), uint8(4), uint16(7), true)
	f.Fuzz(func(t *testing.T, levels []byte, pr, pc uint8, offset uint16, bounded bool) {
		g := Grid{Pr: int(pr)%64 + 1, Pc: int(pc)%64 + 1}
		s := nestedSizes(levels, bounded)
		for _, pl := range Placements() {
			checkOracle(t, g, s, pl, int(offset))
		}
	})
}

// The arithmetic classification relies on nested sizes and a
// non-negative offset; every *SpanAt entry point rejects anything else
// with a message naming the offending level.
func TestSpanAtRejectsUnnestedSizes(t *testing.T) {
	g := Grid{Pr: 4, Pc: 4}
	calls := map[string]func(sizes []int, offset int){
		"ColGroupSpansAt":     func(s []int, o int) { g.ColGroupSpansAt(s, RowMajor, o) },
		"RowGroupSpansAt":     func(s []int, o int) { g.RowGroupSpansAt(s, ColMajor, o) },
		"AllSpanAt":           func(s []int, o int) { g.AllSpanAt(s, o) },
		"ColNeighborsLevelAt": func(s []int, o int) { g.ColNeighborsLevelAt(s, RowMajor, o) },
	}
	cases := []struct {
		sizes  []int
		offset int
		want   string
	}{
		{nil, 0, "needs at least one level size"},
		{[]int{4, 6, 0}, 0, "level 0 group size 4 does not divide level 1's 6"},
		{[]int{2, 8, 12, 0}, 0, "level 1 group size 8 does not divide level 2's 12"},
		{[]int{3, 5}, 0, "level 0 group size 3 does not divide level 1's 5"},
		{[]int{0, 8, 0}, 0, "level 0 needs a group size ≥ 1"},
		{[]int{4, 0}, -1, "rank offset ≥ 0"},
	}
	for name, call := range calls {
		for _, c := range cases {
			msg := func() (msg string) {
				defer func() { msg = fmt.Sprint(recover()) }()
				call(c.sizes, c.offset)
				return ""
			}()
			if !strings.Contains(msg, name) || !strings.Contains(msg, c.want) {
				t.Errorf("%s(%v, offset %d) panicked with %q, want %q", name, c.sizes, c.offset, msg, c.want)
			}
		}
	}
	// Nested sizes, equal neighbours and a bounded outermost level pass.
	for _, sizes := range [][]int{{4, 0}, {4, 4, 0}, {2, 8, 16}, {0}} {
		for _, call := range calls {
			call(sizes, 3)
		}
	}
}

// The span functions allocate a fixed number of times whatever P: a
// three-level hierarchy classified at P = 64 and at P = 4096 costs the
// same allocations, so a regression to per-rank work shows here.
func TestLevelSpanAllocsIndependentOfP(t *testing.T) {
	sizes := []int{16, 128, 0}
	small, large := Grid{Pr: 8, Pc: 8}, Grid{Pr: 64, Pc: 64}
	for _, pl := range Placements() {
		for _, offset := range []int{0, 40} {
			for name, call := range map[string]func(g Grid){
				"ColGroupSpansAt": func(g Grid) { g.ColGroupSpansAt(sizes, pl, offset) },
				"RowGroupSpansAt": func(g Grid) { g.RowGroupSpansAt(sizes, pl, offset) },
				"AllSpanAt":       func(g Grid) { g.AllSpanAt(sizes, offset) },
			} {
				a := testing.AllocsPerRun(20, func() { call(small) })
				b := testing.AllocsPerRun(20, func() { call(large) })
				if a != b || a > 2 {
					t.Errorf("%s %v offset %d: %v allocs at P=64, %v at P=4096; want the same, ≤ 2",
						name, pl, offset, a, b)
				}
			}
		}
	}
}

// spanSink and levelSink keep the benchmarked calls' results live.
var (
	spanSink  []LevelSpan
	levelSink int
)

// BenchmarkLevelSpans times one pricer's worth of span classification —
// column, row and whole-block spans plus the halo level — per topology
// depth, process count, placement and rank offset (0, and a stage block
// that starts mid-node).
func BenchmarkLevelSpans(b *testing.B) {
	depths := map[int][]int{2: {16, 0}, 3: {16, 128, 0}}
	for _, depth := range []int{2, 3} {
		sizes := depths[depth]
		for _, g := range []Grid{{Pr: 16, Pc: 32}, {Pr: 64, Pc: 64}} {
			for _, pl := range Placements() {
				for _, offset := range []int{0, 40} {
					name := fmt.Sprintf("depth=%d/P=%d/%v/offset=%d", depth, g.P(), pl, offset)
					b.Run(name, func(b *testing.B) {
						b.ReportAllocs()
						for i := 0; i < b.N; i++ {
							spanSink = g.ColGroupSpansAt(sizes, pl, offset)
							spanSink = g.RowGroupSpansAt(sizes, pl, offset)
							spanSink = []LevelSpan{g.AllSpanAt(sizes, offset)}
							levelSink = g.ColNeighborsLevelAt(sizes, pl, offset)
						}
					})
				}
			}
		}
	}
}
