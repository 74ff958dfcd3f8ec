package cli

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"dnnparallel"
)

// ParseLevels parses the -levels flag syntax — comma-separated
// "name:alpha:bw[:group]" entries, innermost level first — into a
// hierarchical topology's level list: α in seconds, bandwidth in GB/s,
// group the ranks one instance of the level spans (omitted or 0 =
// unbounded, allowed only on the outermost level). For example
// "node:5e-7:60:16,rack:1e-6:12:128,spine:2e-6:6" is a three-level
// machine with a 10× bandwidth taper from node link to spine.
func ParseLevels(s string) ([]dnnparallel.LevelSpec, error) {
	var out []dnnparallel.LevelSpec
	for _, part := range strings.Split(s, ",") {
		fields := strings.Split(part, ":")
		if len(fields) != 3 && len(fields) != 4 {
			return nil, fmt.Errorf("bad level %q (want name:alpha:bw[:group])", part)
		}
		lv := dnnparallel.LevelSpec{Name: strings.TrimSpace(fields[0])}
		var err error
		// Each range test is phrased so NaN fails it, and ±Inf fails the
		// MaxFloat64 bound: no non-physical link reaches the pricer.
		lv.AlphaSeconds, err = strconv.ParseFloat(strings.TrimSpace(fields[1]), 64)
		if err != nil || !(lv.AlphaSeconds >= 0 && lv.AlphaSeconds <= math.MaxFloat64) {
			return nil, fmt.Errorf("level %q: bad α %q in %q (want finite seconds ≥ 0)", lv.Name, fields[1], part)
		}
		lv.BandwidthGBs, err = strconv.ParseFloat(strings.TrimSpace(fields[2]), 64)
		if err != nil || !(lv.BandwidthGBs > 0 && lv.BandwidthGBs <= math.MaxFloat64) {
			return nil, fmt.Errorf("level %q: bad bandwidth %q in %q (want finite GB/s > 0)", lv.Name, fields[2], part)
		}
		if len(fields) == 4 {
			lv.GroupRanks, err = strconv.Atoi(strings.TrimSpace(fields[3]))
			if err != nil || lv.GroupRanks < 0 {
				return nil, fmt.Errorf("level %q: bad group %q in %q (want ranks ≥ 0)", lv.Name, fields[3], part)
			}
		}
		out = append(out, lv)
	}
	return out, nil
}

// FormatLevels renders a level list back in the -levels flag syntax
// (the group field is omitted when unbounded), so
// ParseLevels(FormatLevels(ls)) round-trips exactly.
func FormatLevels(levels []dnnparallel.LevelSpec) string {
	parts := make([]string, len(levels))
	for i, lv := range levels {
		p := fmt.Sprintf("%s:%s:%s", lv.Name,
			strconv.FormatFloat(lv.AlphaSeconds, 'g', -1, 64),
			strconv.FormatFloat(lv.BandwidthGBs, 'g', -1, 64))
		if lv.GroupRanks > 0 {
			p += ":" + strconv.Itoa(lv.GroupRanks)
		}
		parts[i] = p
	}
	return strings.Join(parts, ",")
}
