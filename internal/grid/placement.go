package grid

import (
	"fmt"
	"slices"
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
	slices.SortFunc(spans, compareSpans)
	return slices.CompactFunc(spans, func(a, b LevelSpan) bool { return compareSpans(a, b) == 0 })
}

// spanPeriod returns the rank shift under which every level span of a
// nested hierarchy repeats: the outermost bounded group size (1 when no
// level is bounded). Moving a group by a multiple of it moves every rank
// by a whole number of units at every level, so Groups, MaxRanks, Fanout
// and Planes stay the same.
func spanPeriod(sizes []int) int {
	for i := len(sizes) - 1; i >= 0; i-- {
		if sizes[i] > 0 {
			return sizes[i]
		}
	}
	return 1
}

// checkNested panics unless sizes is a nested hierarchy — at least one
// level, every non-outermost size ≥ 1 and dividing the next bounded size
// — and the rank offset is non-negative: the invariants the arithmetic
// classification below relies on. machine.Topology.Validate guarantees
// the first two for every topology; SpanOf, the general classifier,
// needs neither.
func checkNested(fn string, sizes []int, offset int) {
	if len(sizes) == 0 {
		panic(fmt.Sprintf("grid: %s needs at least one level size", fn))
	}
	for i, size := range sizes[:len(sizes)-1] {
		if size < 1 {
			panic(fmt.Sprintf("grid: %s level %d needs a group size ≥ 1, got %d", fn, i, size))
		}
		if next := sizes[i+1]; next > 0 && next%size != 0 {
			panic(fmt.Sprintf("grid: %s level %d group size %d does not divide level %d's %d",
				fn, i, size, i+1, next))
		}
	}
	if offset < 0 {
		panic(fmt.Sprintf("grid: %s needs a rank offset ≥ 0, got %d", fn, offset))
	}
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// progression is one collective group's machine ranks under a placement:
// start, start+stride, …, start+(n−1)·stride with stride ≥ 1. Row-major
// row groups and col-major column groups are contiguous (stride 1); the
// other family is strided by Pc or Pr.
type progression struct{ start, stride, n int }

// unitsTouched counts the distinct size-`size` units holding terms
// lo … hi of the progression. A stride of at least the size puts each
// term in a unit of its own; a shorter one skips no unit between the
// first term and the last.
func (q progression) unitsTouched(lo, hi, size int) int {
	if q.stride >= size {
		return hi - lo + 1
	}
	return (q.start+hi*q.stride)/size - (q.start+lo*q.stride)/size + 1
}

// visit folds unit u's rank count and sub-unit count (units of size sub)
// into st.
func (q progression) visit(st *LevelStat, u, size, sub int) {
	lo, hi := 0, q.n-1
	if d := u*size - q.start; d > 0 {
		lo = (d + q.stride - 1) / q.stride
	}
	if h := (u*size + size - 1 - q.start) / q.stride; h < hi {
		hi = h
	}
	st.MaxRanks = max(st.MaxRanks, hi-lo+1)
	st.Fanout = max(st.Fanout, q.unitsTouched(lo, hi, sub))
}

// levelStat returns the progression's Groups, MaxRanks and Fanout at one
// level of size-`size` units whose sub-units have size sub (1, the ranks
// themselves, at the innermost level); a size ≤ 0 is one unbounded unit.
// The ranks ascend, so the unit and sub-unit indices never decrease and
// no set is needed.
func (q progression) levelStat(size, sub int) LevelStat {
	if size <= 0 {
		return LevelStat{Groups: 1, MaxRanks: q.n, Fanout: q.unitsTouched(0, q.n-1, sub)}
	}
	if q.stride >= size {
		return LevelStat{Groups: q.n, MaxRanks: 1, Fanout: 1}
	}
	first, last := q.start/size, (q.start+(q.n-1)*q.stride)/size
	st := LevelStat{Groups: last - first + 1}
	// Only the two end units can be partly covered. An interior unit u
	// holds ranks at offsets p, p+stride, … from its start, where
	// p = (start − u·size) mod stride repeats every stride/gcd(size,
	// stride) units (sub divides size, so its boundaries sit at the same
	// offsets in every unit): one period of interior units shows every
	// interior shape.
	q.visit(&st, first, size, sub)
	period := q.stride / gcd(size, q.stride)
	for u := first + 1; u < last && u <= first+period; u++ {
		q.visit(&st, u, size, sub)
	}
	if last > first {
		q.visit(&st, last, size, sub)
	}
	return st
}

// classify fills levels, one LevelStat per size, with the progression's
// level span: what SpanOf returns for its explicit rank list.
func (q progression) classify(sizes []int, levels []LevelStat) {
	sub, planes := 1, 1
	for i, size := range sizes {
		st := q.levelStat(size, sub)
		st.Planes = planes
		levels[i] = st
		sub, planes = size, st.MaxRanks
	}
}

// groupFamily is one kind of collective group of a grid under a
// placement: group k (0 ≤ k < count) is the progression first shifted
// by k·step ranks.
type groupFamily struct {
	first       progression
	step, count int
}

// colFamily returns the Pc column groups: rank offset + r·Pc + c
// (row-major) or offset + c·Pr + r (col-major) for r = 0 … Pr−1.
func (g Grid) colFamily(pl Placement, offset int) groupFamily {
	if pl == ColMajor {
		return groupFamily{progression{offset, 1, g.Pr}, g.Pr, g.Pc}
	}
	return groupFamily{progression{offset, g.Pc, g.Pr}, 1, g.Pc}
}

// rowFamily returns the Pr row groups (see colFamily).
func (g Grid) rowFamily(pl Placement, offset int) groupFamily {
	if pl == ColMajor {
		return groupFamily{progression{offset, g.Pr, g.Pc}, 1, g.Pr}
	}
	return groupFamily{progression{offset, 1, g.Pc}, g.Pc, g.Pr}
}

// spans returns the family's distinct level spans. Groups k and
// k + spanPeriod/gcd(step, spanPeriod) start a whole period apart and
// share a span, so only the first min(count, that many) groups are
// classified: O(min(count, period) × levels) work and, while the family
// has at most len(scratch)/levels distinct shapes, two allocations
// however large P is.
func (f groupFamily) spans(sizes []int) []LevelSpan {
	period := spanPeriod(sizes)
	n, nl := min(f.count, period/gcd(f.step, period)), len(sizes)
	// shapes holds the distinct spans found so far, nl stats each; the
	// group being classified lands in the slot after them.
	var scratch [96]LevelStat
	shapes := scratch[:0]
	for k := 0; k < n; k++ {
		if len(shapes)+nl > cap(shapes) {
			shapes = append(make([]LevelStat, 0, 2*cap(shapes)+nl), shapes...)
		}
		cur := shapes[len(shapes) : len(shapes)+nl]
		q := f.first
		q.start += k * f.step
		q.classify(sizes, cur)
		if !hasShape(shapes, cur) {
			shapes = shapes[:len(shapes)+nl]
		}
	}
	spans := make([]LevelSpan, len(shapes)/nl)
	levels := slices.Clone(shapes)
	for i := range spans {
		spans[i] = LevelSpan{Ranks: f.first.n, Levels: levels[i*nl : (i+1)*nl : (i+1)*nl]}
	}
	return dedupeSpans(spans)
}

// hasShape reports whether shape (one span's per-level stats) is among
// the consecutive len(shape)-stat shapes of shapes.
func hasShape(shapes, shape []LevelStat) bool {
	for i := 0; i < len(shapes); i += len(shape) {
		if slices.Equal(shapes[i:i+len(shape)], shape) {
			return true
		}
	}
	return false
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
//
// sizes must be nested (each non-outermost size ≥ 1 and dividing the
// next bounded one) and offset ≥ 0; anything else panics. The spans are
// in compareSpans order, each equal to SpanOf over the group's ranks.
func (g Grid) ColGroupSpansAt(sizes []int, pl Placement, offset int) []LevelSpan {
	checkNested("ColGroupSpansAt", sizes, offset)
	return g.colFamily(pl, offset).spans(sizes)
}

// RowGroupSpansAt returns the distinct level spans of the Pr row groups
// (the Pc-sized ∆W all-reduce groups of Fig. 5) under a placement, for a
// grid whose rank block starts at machine rank `offset` (see
// ColGroupSpansAt).
func (g Grid) RowGroupSpansAt(sizes []int, pl Placement, offset int) []LevelSpan {
	checkNested("RowGroupSpansAt", sizes, offset)
	return g.rowFamily(pl, offset).spans(sizes)
}

// AllSpanAt returns the level span of the grid's whole rank block —
// machine ranks offset … offset+P−1 — used by the full-P collectives
// (pure batch / domain gradient all-reduces). It is
// placement-independent: every placement is a bijection onto the block.
// The block is contiguous, so each level costs at most three unit
// visits.
func (g Grid) AllSpanAt(sizes []int, offset int) LevelSpan {
	checkNested("AllSpanAt", sizes, offset)
	q := progression{offset, 1, g.P()}
	s := LevelSpan{Ranks: q.n, Levels: make([]LevelStat, len(sizes))}
	q.classify(sizes, s.Levels)
	return s
}

// ColNeighborsLevelAt returns the innermost level whose groups contain
// every pair of spatially adjacent ranks within every column group —
// the halo-exchange partners of the domain-parallel layers (Eq. 7) —
// for a grid whose rank block starts at machine rank `offset` (see
// ColGroupSpansAt). The halo step is bulk-synchronous across all pairs,
// so a single boundary-crossing pair lifts the whole exchange to the
// level (and link) of that crossing.
func (g Grid) ColNeighborsLevelAt(sizes []int, pl Placement, offset int) int {
	checkNested("ColNeighborsLevelAt", sizes, offset)
	return NeighborsLevel(g.colFamily(pl, offset).spans(sizes))
}

// NeighborsLevel returns the innermost level whose groups contain every
// pair of consecutive ranks of every group with one of the given spans,
// capped at the outermost level. On a nested hierarchy consecutive ranks
// all share a level-i group exactly when the whole group sits in one, so
// a span's level is the first whose Groups is 1.
func NeighborsLevel(spans []LevelSpan) int {
	level := 0
	for _, s := range spans {
		l := 0
		for l < len(s.Levels)-1 && s.Levels[l].Groups > 1 {
			l++
		}
		level = max(level, l)
	}
	return level
}
