package cli

import (
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dnnparallel"
)

// TestParseLevelsTable: the -levels flag syntax, table-driven — every
// accepted spelling produces the expected level list, every rejected
// one names the bad field, and FormatLevels ∘ ParseLevels round-trips.
func TestParseLevelsTable(t *testing.T) {
	cases := []struct {
		name, in string
		want     []dnnparallel.LevelSpec
		wantErr  bool
		errHas   string // when set, the error must contain it
	}{
		{
			name: "two-level cori",
			in:   "node:5e-7:60:16,cluster:2e-6:6",
			want: []dnnparallel.LevelSpec{
				{Name: "node", AlphaSeconds: 5e-7, BandwidthGBs: 60, GroupRanks: 16},
				{Name: "cluster", AlphaSeconds: 2e-6, BandwidthGBs: 6},
			},
		},
		{
			name: "three-level rack taper",
			in:   "node:5e-7:60:16,rack:1e-6:12:128,spine:2e-6:6",
			want: []dnnparallel.LevelSpec{
				{Name: "node", AlphaSeconds: 5e-7, BandwidthGBs: 60, GroupRanks: 16},
				{Name: "rack", AlphaSeconds: 1e-6, BandwidthGBs: 12, GroupRanks: 128},
				{Name: "spine", AlphaSeconds: 2e-6, BandwidthGBs: 6},
			},
		},
		{
			name: "single flat level",
			in:   "net:2e-6:6",
			want: []dnnparallel.LevelSpec{{Name: "net", AlphaSeconds: 2e-6, BandwidthGBs: 6}},
		},
		{
			name: "anonymous level and spaces",
			in:   " :0:6:4 , top:1e-6:12 ",
			want: []dnnparallel.LevelSpec{
				{BandwidthGBs: 6, GroupRanks: 4},
				{Name: "top", AlphaSeconds: 1e-6, BandwidthGBs: 12},
			},
		},
		{
			name: "explicit zero group means unbounded",
			in:   "node:5e-7:60:16,top:2e-6:6:0",
			want: []dnnparallel.LevelSpec{
				{Name: "node", AlphaSeconds: 5e-7, BandwidthGBs: 60, GroupRanks: 16},
				{Name: "top", AlphaSeconds: 2e-6, BandwidthGBs: 6},
			},
		},
		{name: "empty", in: "", wantErr: true},
		{name: "too few fields", in: "node:5e-7", wantErr: true},
		{name: "too many fields", in: "node:5e-7:60:16:9", wantErr: true},
		{name: "bad alpha", in: "node:fast:60:16", wantErr: true},
		{name: "negative alpha", in: "node:-1e-7:60:16", wantErr: true},
		{name: "zero bandwidth", in: "node:5e-7:0:16", wantErr: true},
		{name: "bad group", in: "node:5e-7:60:many", wantErr: true},
		{name: "negative group", in: "node:5e-7:60:-4", wantErr: true},
		{name: "one bad level among good", in: "node:5e-7:60:16,rack::12", wantErr: true},
		{name: "NaN alpha", errHas: `level "node"`, in: "node:NaN:60:16,spine:2e-6:6", wantErr: true},
		{name: "Inf alpha", errHas: `level "node"`, in: "node:Inf:60:16,spine:2e-6:6", wantErr: true},
		{name: "NaN bandwidth", errHas: `level "node"`, in: "node:5e-7:nan:16,spine:2e-6:6", wantErr: true},
		{name: "Inf bandwidth", errHas: `level "node"`, in: "node:5e-7:+Infinity:16,spine:2e-6:6", wantErr: true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, err := ParseLevels(c.in)
			if c.wantErr {
				if err == nil {
					t.Fatalf("ParseLevels(%q) = %v, want error", c.in, got)
				}
				if !strings.Contains(err.Error(), c.errHas) {
					t.Fatalf("ParseLevels(%q) error %q does not name %s", c.in, err, c.errHas)
				}
				return
			}
			if err != nil {
				t.Fatalf("ParseLevels(%q): %v", c.in, err)
			}
			if !reflect.DeepEqual(got, c.want) {
				t.Fatalf("ParseLevels(%q) = %+v, want %+v", c.in, got, c.want)
			}
			back, err := ParseLevels(FormatLevels(got))
			if err != nil {
				t.Fatalf("round-trip ParseLevels(%q): %v", FormatLevels(got), err)
			}
			if !reflect.DeepEqual(back, got) {
				t.Fatalf("round trip through %q: %+v != %+v", FormatLevels(got), back, got)
			}
		})
	}
}

// TestFormatLevelsCanonical: FormatLevels emits the documented flag
// syntax, omitting the group field of unbounded levels.
func TestFormatLevelsCanonical(t *testing.T) {
	in := []dnnparallel.LevelSpec{
		{Name: "node", AlphaSeconds: 5e-7, BandwidthGBs: 60, GroupRanks: 16},
		{Name: "rack", AlphaSeconds: 1e-6, BandwidthGBs: 12, GroupRanks: 128},
		{Name: "spine", AlphaSeconds: 2e-6, BandwidthGBs: 6},
	}
	want := "node:5e-07:60:16,rack:1e-06:12:128,spine:2e-06:6"
	if got := FormatLevels(in); got != want {
		t.Fatalf("FormatLevels = %q, want %q", got, want)
	}
}

// FuzzLevelsFlag: every string ParseLevels accepts describes physical
// links — finite α and bandwidth on every level, so nothing NaN or
// infinite reaches the pricer — and renders back through FormatLevels
// to the same level list. The corpus is seeded with the levels blocks
// of the example scenarios plus the NaN/Inf spellings strconv accepts.
func FuzzLevelsFlag(f *testing.F) {
	paths, err := filepath.Glob(scenarioPath("*.json"))
	if err != nil {
		f.Fatal(err)
	}
	for _, p := range paths {
		sc, err := dnnparallel.LoadScenario(p)
		if err != nil {
			f.Fatal(err)
		}
		if sc.Topology != nil && len(sc.Topology.Levels) > 0 {
			f.Add(FormatLevels(sc.Topology.Levels))
		}
	}
	for _, s := range []string{
		"node:NaN:60:16,spine:2e-6:6",
		"node:5e-7:nan:16,spine:2e-6:6",
		"node:Inf:60:16,spine:2e-6:6",
		"node:5e-7:+Inf:16,spine:2e-6:6",
		"node:5e-7:infinity:16,spine:-inf:6",
		"net:1e400:6",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		ls, err := ParseLevels(s)
		if err != nil {
			return
		}
		for _, lv := range ls {
			if math.IsNaN(lv.AlphaSeconds) || math.IsInf(lv.AlphaSeconds, 0) ||
				math.IsNaN(lv.BandwidthGBs) || math.IsInf(lv.BandwidthGBs, 0) {
				t.Fatalf("ParseLevels(%q) accepted a non-finite level %+v", s, lv)
			}
		}
		back, err := ParseLevels(FormatLevels(ls))
		if err != nil {
			t.Fatalf("ParseLevels(FormatLevels(%+v)) = %v", ls, err)
		}
		if !reflect.DeepEqual(back, ls) {
			t.Fatalf("round trip of %q through %q: %+v != %+v", s, FormatLevels(ls), back, ls)
		}
	})
}
