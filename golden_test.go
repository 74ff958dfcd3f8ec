package dnnparallel

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dnnparallel/internal/report"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/ from the current code")

// TestGoldenScenarioPlans pins the façade's answers for every example
// scenario bit for bit: the Plan JSON (search-stats timings zeroed) for
// each file, plus the Simulate JSON and its Chrome-trace variant for
// scenarios that pin a grid. Go's JSON float encoding round-trips, so a
// byte-identical file means bit-identical numbers. Regenerate with
// `go test -run TestGoldenScenarioPlans -update .` only when a change is
// meant to move an answer.
func TestGoldenScenarioPlans(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("examples", "scenarios", "*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no example scenarios found (%v)", err)
	}
	for _, path := range paths {
		name := strings.TrimSuffix(filepath.Base(path), ".json")
		t.Run(name, func(t *testing.T) {
			sc, err := LoadScenario(path)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Plan(sc)
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats != nil {
				z := res.Stats.ZeroTimes()
				res.Stats = &z
			}
			checkGolden(t, name+".plan.json", mustIndent(t, res))
			if sc.Grid == "" {
				return
			}
			sim, err := Simulate(sc)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, name+".simulate.json", mustIndent(t, sim))
			trace, err := report.ChromeTrace(sim.Raw)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, name+".trace.json", append(trace, '\n'))
		})
	}
}

func mustIndent(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(data, '\n')
}

// checkGolden compares got with testdata/<file>, or rewrites the file
// under -update.
func checkGolden(t *testing.T, file string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", file)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from its golden file (%d bytes, want %d)", file, len(got), len(want))
	}
}
