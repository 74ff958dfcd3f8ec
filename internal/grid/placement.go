package grid

import (
	"fmt"
	"sort"
	"strings"
)

// Placement maps logical grid coordinates (r, c) to machine ranks, i.e.
// decides where each process of the Pr × Pc grid physically sits when the
// machine packs consecutive machine ranks onto nodes. The choice matters
// only on a hierarchical machine: it decides whether the Pc-sized row
// groups (the ∆W all-reduce of Fig. 5) or the Pr-sized column groups (the
// activation all-gather / ∆X all-reduce) stay inside a node.
type Placement int

const (
	// RowMajor places process (r, c) at machine rank r·Pc + c — the
	// package's logical rank convention. Row groups occupy consecutive
	// machine ranks; column groups have stride Pc.
	RowMajor Placement = iota
	// ColMajor places process (r, c) at machine rank c·Pr + r. Column
	// groups occupy consecutive machine ranks; row groups have stride Pr.
	ColMajor
)

// Placements lists every placement, in search order.
func Placements() []Placement { return []Placement{RowMajor, ColMajor} }

func (p Placement) String() string {
	switch p {
	case RowMajor:
		return "row-major"
	case ColMajor:
		return "col-major"
	}
	return fmt.Sprintf("Placement(%d)", int(p))
}

// ParsePlacement converts a flag value into a Placement.
func ParsePlacement(s string) (Placement, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "row-major", "row", "":
		return RowMajor, nil
	case "col-major", "col", "column-major":
		return ColMajor, nil
	}
	return RowMajor, fmt.Errorf("grid: unknown placement %q (want row-major|col-major)", s)
}

// MarshalText implements encoding.TextMarshaler so a Placement embeds in
// JSON specs as its canonical string. Out-of-range values error rather
// than emitting an unparseable "Placement(n)".
func (p Placement) MarshalText() ([]byte, error) {
	switch p {
	case RowMajor, ColMajor:
		return []byte(p.String()), nil
	}
	return nil, fmt.Errorf("grid: cannot marshal invalid placement %d", int(p))
}

// UnmarshalText implements encoding.TextUnmarshaler via ParsePlacement,
// so String → Parse round-trips through JSON exactly.
func (p *Placement) UnmarshalText(text []byte) error {
	v, err := ParsePlacement(string(text))
	if err != nil {
		return err
	}
	*p = v
	return nil
}

// MachineRank returns the machine rank of process (r, c) under a
// placement. The logical rank (Grid.Rank) is the RowMajor special case.
func (g Grid) MachineRank(r, c int, pl Placement) int {
	if r < 0 || r >= g.Pr || c < 0 || c >= g.Pc {
		panic(fmt.Sprintf("grid: coords (%d,%d) outside %v", r, c, g))
	}
	if pl == ColMajor {
		return c*g.Pr + r
	}
	return r*g.Pc + c
}

// LevelStat summarizes how one collective group's machine ranks occupy
// one level of a hierarchical machine — the per-level information the
// recursive α–β cost formulas need. Levels follow machine.Topology
// order, innermost first.
type LevelStat struct {
	// Groups is the number of distinct level-i groups the collective
	// group touches (nodes at level 0 of a node/cluster machine).
	Groups int
	// MaxRanks is the largest number of the group's ranks inside any
	// one touched level-i group.
	MaxRanks int
	// Fanout is the largest number of touched immediate sub-units
	// inside one touched group: ranks for the innermost level, touched
	// level-(i−1) groups above. A level with Fanout 1 moves no data —
	// the recursion skips it.
	Fanout int
	// Planes is the number of concurrent communication planes a
	// hierarchical collective runs across this level's links: the
	// busiest sub-unit's rank count (1 at the innermost level). The
	// per-level phase of a collective is serialized over its planes —
	// they share the sub-unit's single uplink, exactly as the PR 3
	// two-level model serialized MaxPerNode planes over a node's NIC.
	Planes int
}

// LevelSpan classifies one collective group of machine ranks against
// every level of a hierarchical machine. The zero value (no levels)
// stands for a group on a flat machine — uniform-topology pricing never
// consults the per-level stats.
type LevelSpan struct {
	// Ranks is the group size p.
	Ranks int
	// Levels holds one LevelStat per topology level, innermost first.
	Levels []LevelStat
}

// Active reports whether level i moves data for this group — whether
// the group spreads over more than one of that level's sub-units.
func (s LevelSpan) Active(i int) bool { return s.Levels[i].Fanout > 1 }

func (s LevelSpan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d ranks", s.Ranks)
	for i, lv := range s.Levels {
		fmt.Fprintf(&b, "; l%d: %d groups (≤%d ranks, fanout %d, %d planes)",
			i, lv.Groups, lv.MaxRanks, lv.Fanout, lv.Planes)
	}
	return b.String()
}

// levelUnit returns the index of the size-`size` unit that machine rank
// r falls in; size 0 (an unbounded outermost level) is one unit.
func levelUnit(r, size int) int {
	if size > 0 {
		return r / size
	}
	return 0
}

// SpanOf classifies a set of machine ranks against a hierarchy of group
// sizes (innermost first, as machine.Topology.GroupSizes returns them;
// the outermost size may be 0 = the whole machine). Non-outermost sizes
// must be ≥ 1.
func SpanOf(ranks []int, sizes []int) LevelSpan {
	if len(sizes) == 0 {
		panic("grid: SpanOf needs at least one level size")
	}
	for i, size := range sizes[:len(sizes)-1] {
		if size < 1 {
			panic(fmt.Sprintf("grid: SpanOf level %d needs a group size ≥ 1, got %d", i, size))
		}
	}
	if len(ranks) == 0 {
		return LevelSpan{}
	}
	s := LevelSpan{Ranks: len(ranks), Levels: make([]LevelStat, len(sizes))}
	prevMaxRanks := 1
	for i, size := range sizes {
		rankCount := make(map[int]int)
		subUnits := make(map[int]map[int]struct{})
		for _, r := range ranks {
			gid := levelUnit(r, size)
			rankCount[gid]++
			sub := r
			if i > 0 {
				sub = levelUnit(r, sizes[i-1])
			}
			set := subUnits[gid]
			if set == nil {
				set = make(map[int]struct{})
				subUnits[gid] = set
			}
			set[sub] = struct{}{}
		}
		st := LevelStat{Groups: len(rankCount), Planes: prevMaxRanks}
		for gid, n := range rankCount {
			if n > st.MaxRanks {
				st.MaxRanks = n
			}
			if f := len(subUnits[gid]); f > st.Fanout {
				st.Fanout = f
			}
		}
		s.Levels[i] = st
		prevMaxRanks = st.MaxRanks
	}
	return s
}

// compareSpans orders spans deterministically (Ranks, then per-level
// stats innermost first) so worst-case selection over a deduplicated
// span list cannot depend on group enumeration order.
func compareSpans(a, b LevelSpan) int {
	if a.Ranks != b.Ranks {
		return a.Ranks - b.Ranks
	}
	if len(a.Levels) != len(b.Levels) {
		return len(a.Levels) - len(b.Levels)
	}
	for i := range a.Levels {
		x, y := a.Levels[i], b.Levels[i]
		switch {
		case x.Groups != y.Groups:
			return x.Groups - y.Groups
		case x.MaxRanks != y.MaxRanks:
			return x.MaxRanks - y.MaxRanks
		case x.Fanout != y.Fanout:
			return x.Fanout - y.Fanout
		case x.Planes != y.Planes:
			return x.Planes - y.Planes
		}
	}
	return 0
}

// dedupeSpans sorts and deduplicates spans so callers price each distinct
// group shape once.
func dedupeSpans(spans []LevelSpan) []LevelSpan {
	sort.Slice(spans, func(i, j int) bool { return compareSpans(spans[i], spans[j]) < 0 })
	out := spans[:0]
	for i, s := range spans {
		if i == 0 || compareSpans(s, out[len(out)-1]) != 0 {
			out = append(out, s)
		}
	}
	return out
}

// ColGroupSpansAt returns the distinct level spans of the Pc column
// groups (the Pr-sized all-gather / ∆X all-reduce groups of Fig. 5)
// under a placement, for a grid whose process (0,0) sits at machine rank
// `offset` — the rank block of one pipeline stage inside the machine
// (offset 0 for a whole-machine grid). Misaligned groups can straddle
// group boundaries differently, so more than one shape may come back; a
// bulk-synchronous collective is governed by the most expensive one. An
// offset can move a group across node or rack boundaries, so the spans
// (and hence the Eq. 3–9 prices) genuinely depend on where the block
// starts.
func (g Grid) ColGroupSpansAt(sizes []int, pl Placement, offset int) []LevelSpan {
	spans := make([]LevelSpan, 0, g.Pc)
	ranks := make([]int, g.Pr)
	for c := 0; c < g.Pc; c++ {
		for r := 0; r < g.Pr; r++ {
			ranks[r] = offset + g.MachineRank(r, c, pl)
		}
		spans = append(spans, SpanOf(ranks, sizes))
	}
	return dedupeSpans(spans)
}

// RowGroupSpansAt returns the distinct level spans of the Pr row groups
// (the Pc-sized ∆W all-reduce groups of Fig. 5) under a placement, for a
// grid whose rank block starts at machine rank `offset` (see
// ColGroupSpansAt).
func (g Grid) RowGroupSpansAt(sizes []int, pl Placement, offset int) []LevelSpan {
	spans := make([]LevelSpan, 0, g.Pr)
	ranks := make([]int, g.Pc)
	for r := 0; r < g.Pr; r++ {
		for c := 0; c < g.Pc; c++ {
			ranks[c] = offset + g.MachineRank(r, c, pl)
		}
		spans = append(spans, SpanOf(ranks, sizes))
	}
	return dedupeSpans(spans)
}

// AllSpanAt returns the level span of the grid's whole rank block —
// machine ranks offset … offset+P−1 — used by the full-P collectives
// (pure batch / domain gradient all-reduces). It is
// placement-independent: every placement is a bijection onto the block.
func (g Grid) AllSpanAt(sizes []int, offset int) LevelSpan {
	ranks := make([]int, g.P())
	for i := range ranks {
		ranks[i] = offset + i
	}
	return SpanOf(ranks, sizes)
}

// ColNeighborsLevelAt returns the innermost level whose groups contain
// every pair of spatially adjacent ranks within every column group —
// the halo-exchange partners of the domain-parallel layers (Eq. 7) —
// for a grid whose rank block starts at machine rank `offset` (see
// ColGroupSpansAt). The halo step is bulk-synchronous across all pairs,
// so a single boundary-crossing pair lifts the whole exchange to the
// level (and link) of that crossing.
func (g Grid) ColNeighborsLevelAt(sizes []int, pl Placement, offset int) int {
	if len(sizes) == 0 {
		panic("grid: ColNeighborsLevelAt needs at least one level size")
	}
	level := 0
	for c := 0; c < g.Pc; c++ {
		for r := 0; r+1 < g.Pr; r++ {
			a := offset + g.MachineRank(r, c, pl)
			b := offset + g.MachineRank(r+1, c, pl)
			l := 0
			for l < len(sizes)-1 && levelUnit(a, sizes[l]) != levelUnit(b, sizes[l]) {
				l++
			}
			if l > level {
				level = l
			}
		}
	}
	return level
}
