package main

import (
	"bytes"
	"encoding/json"
	"strconv"
	"testing"

	"dnnparallel"
)

// The tests run from planbench/, one level below the repository root.
const testRoot = ".."

func TestGenerateIsDeterministic(t *testing.T) {
	for _, w := range workloadNames {
		a, err := generate(w, 7, testRoot)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		b, err := generate(w, 7, testRoot)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if len(a) != len(b) {
			t.Fatalf("%s: %d vs %d requests for one seed", w, len(a), len(b))
		}
		for i := range a {
			if a[i].Name != b[i].Name || !bytes.Equal(a[i].Body, b[i].Body) {
				t.Fatalf("%s: request %d differs between two generations with one seed", w, i)
			}
		}
		c, err := generate(w, 8, testRoot)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		same := true
		for i := range c {
			same = same && i < len(a) && bytes.Equal(a[i].Body, c[i].Body)
		}
		if same {
			t.Errorf("%s: seeds 7 and 8 generate the same requests", w)
		}
	}
}

func TestWorkloadShapes(t *testing.T) {
	for _, w := range workloadNames {
		reqs, err := generate(w, 3, testRoot)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		keys := make(map[string]int)
		for _, r := range reqs {
			keys[r.Key]++
		}
		if w == "serve-repeat" {
			if len(keys) > 128 {
				t.Errorf("serve-repeat asks %d questions, more than the cache holds", len(keys))
			}
			for _, n := range keys {
				if n != repeatSpellings {
					t.Fatalf("serve-repeat: a question is sent %d times, want %d", n, repeatSpellings)
				}
			}
			spellings := make(map[string]bool)
			for _, r := range reqs {
				spellings[string(r.Body)] = true
			}
			if len(spellings) < len(reqs)*3/4 {
				t.Errorf("serve-repeat: only %d distinct bodies for %d requests", len(spellings), len(reqs))
			}
			continue
		}
		if len(keys) != len(reqs) {
			t.Errorf("%s: %d requests but %d distinct questions", w, len(reqs), len(keys))
		}
		for _, g := range goldens[w] {
			found := false
			for _, r := range reqs {
				found = found || r.Name == "golden/"+g
			}
			if !found {
				t.Errorf("%s: golden %s missing", w, g)
			}
		}
	}
}

// planGolden plans one golden scenario in-process and returns its
// request and the response as the server would send it.
func planGolden(t *testing.T, name string) (request, response) {
	t.Helper()
	g := &generator{seen: make(map[string]bool)}
	if err := g.addGolden(testRoot, name); err != nil {
		t.Fatal(err)
	}
	req := g.reqs[0]
	sc, err := dnnparallel.DecodeScenario(req.Body)
	if err != nil {
		t.Fatal(err)
	}
	res, err := dnnparallel.Plan(sc)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return req, response{Status: 200, ContentType: "application/json", Cache: "miss", Body: body}
}

func TestKnownAnswersHold(t *testing.T) {
	for _, name := range []string{"alexnet-p512", "alexnet-rack", "alexnet-tta"} {
		req, resp := planGolden(t, name)
		if _, err := checkResponse(req, resp, "miss"); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// perturb rewrites one field of the response's best plan.
func perturb(t *testing.T, resp response, field string, value any) response {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(resp.Body, &m); err != nil {
		t.Fatal(err)
	}
	m["best"].(map[string]any)[field] = value
	body, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body = body
	return resp
}

func TestCheckerCatchesPerturbedWinner(t *testing.T) {
	req, resp := planGolden(t, "alexnet-topology")
	w, err := checkResponse(req, resp, "miss")
	if err != nil {
		t.Fatalf("unperturbed response: %v", err)
	}
	want := digest([]winner{w})

	var res dnnparallel.PlanResult
	if err := json.Unmarshal(resp.Body, &res); err != nil {
		t.Fatal(err)
	}
	var loser dnnparallel.PlanSummary
	for _, p := range res.All {
		if p.Feasible && p.Grid != res.Best.Grid {
			loser = p
			break
		}
	}
	bad := perturb(t, resp, "grid", loser.Grid)
	bad = perturb(t, bad, "iter_seconds", loser.IterSeconds)
	if _, err := checkResponse(req, bad, "miss"); err == nil {
		t.Errorf("a losing plan reported as best passed the check")
	}

	// A winner's iteration time nudged in its last bits must fail the
	// plan check or change the digest.
	nudged := perturb(t, resp, "iter_seconds", res.Best.IterSeconds*(1+1e-15))
	if w2, err := checkResponse(req, nudged, "miss"); err == nil && digest([]winner{w2}) == want {
		t.Errorf("a perturbed iteration time left the digest unchanged")
	}
	if _, err := checkResponse(req, resp, "hit"); err == nil {
		t.Errorf("a wrong X-Cache outcome passed the check")
	}
}

func TestKnownAnswerRejectsOtherWinners(t *testing.T) {
	ka := knownAnswers["golden/alexnet-p512"]
	if err := ka.check(dnnparallel.PlanSummary{Grid: "32x16", IterSeconds: 0.034431}); err != nil {
		t.Errorf("the pinned answer was rejected: %v", err)
	}
	for _, p := range []dnnparallel.PlanSummary{
		{Grid: "16x32", IterSeconds: 0.03443},
		{Grid: "32x16", IterSeconds: 0.0345},
	} {
		if err := ka.check(p); err == nil {
			t.Errorf("%s at %g s/iter passed as the pinned answer", p.Grid, p.IterSeconds)
		}
	}
	rack := knownAnswers["golden/alexnet-rack"]
	if err := rack.check(dnnparallel.PlanSummary{Grid: "16x32", Placement: dnnparallel.PlacementRowMajor}); err == nil {
		t.Errorf("a row-major 16x32 passed as the col-major pinned answer")
	}
}

func TestRecordedDigestMatches(t *testing.T) {
	ref, err := loadReference(testRoot)
	if err != nil {
		t.Fatal(err)
	}
	const seed = 1
	want, ok := ref.Digests["flat-paper"][strconv.Itoa(seed)]
	if !ok {
		t.Skip("no recorded flat-paper digest for seed 1")
	}
	reqs, err := generate("flat-paper", seed, testRoot)
	if err != nil {
		t.Fatal(err)
	}
	got, err := referenceDigest(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("flat-paper seed %d: digest %s, recorded %s", seed, got, want)
	}
}
