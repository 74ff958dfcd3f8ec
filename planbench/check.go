package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strings"

	"dnnparallel"
)

// winner is the part of a plan the digest covers: the chosen layout and
// the exact bits of its predicted iteration time.
type winner struct {
	Grid      string
	Placement dnnparallel.Placement
	Micro     int
	Stages    int
	Partition []int
	Batch     int
	IterBits  uint64
}

func (w winner) String() string {
	return fmt.Sprintf("%s %v M=%d S=%d cuts=%v B=%d iter=%016x",
		w.Grid, w.Placement, w.Micro, w.Stages, w.Partition, w.Batch, w.IterBits)
}

func winnerOf(p dnnparallel.PlanSummary) winner {
	return winner{
		Grid: p.Grid, Placement: p.Placement, Micro: p.MicroBatch, Stages: p.Stages,
		Partition: p.Partition, Batch: p.Batch, IterBits: math.Float64bits(p.IterSeconds),
	}
}

// digest hashes the winners of a request list, in list order.
func digest(ws []winner) string {
	h := sha256.New()
	for _, w := range ws {
		fmt.Fprintln(h, w.String())
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// knownAnswer pins one golden scenario's winner.
type knownAnswer struct {
	grid      string
	placement string  // "" = any
	batch     int     // 0 = any
	iter      float64 // 0 = any; else matched to 4 significant digits
}

var knownAnswers = map[string]knownAnswer{
	"golden/alexnet-p512": {grid: "32x16", iter: 0.03443},
	"golden/alexnet-rack": {grid: "16x32", placement: "col-major"},
	"golden/alexnet-tta":  {grid: "32x16", batch: 2048},
}

// checkResponse verifies one /v1/plan response: status, content type,
// cache outcome, a parseable body whose Best is feasible and minimal over
// the feasible All entries under the scenario's objective, and search
// statistics that reconcile. It returns the winner for the digest.
func checkResponse(req request, resp response, wantCache string) (winner, error) {
	if resp.Err != nil {
		return winner{}, fmt.Errorf("%s: %w", req.Name, resp.Err)
	}
	if resp.Status != http.StatusOK {
		return winner{}, fmt.Errorf("%s: status %d: %s", req.Name, resp.Status, strings.TrimSpace(string(resp.Body)))
	}
	if resp.ContentType != "application/json" {
		return winner{}, fmt.Errorf("%s: content type %q", req.Name, resp.ContentType)
	}
	if resp.Cache != wantCache {
		return winner{}, fmt.Errorf("%s: X-Cache %q, want %q", req.Name, resp.Cache, wantCache)
	}
	var res dnnparallel.PlanResult
	if err := json.Unmarshal(resp.Body, &res); err != nil {
		return winner{}, fmt.Errorf("%s: decoding the plan: %w", req.Name, err)
	}
	if err := checkPlan(req, &res); err != nil {
		return winner{}, err
	}
	return winnerOf(res.Best), nil
}

// checkPlan verifies a decoded plan result (see checkResponse).
func checkPlan(req request, res *dnnparallel.PlanResult) error {
	canon, err := res.Scenario.Canonical()
	if err != nil {
		return fmt.Errorf("%s: echoed scenario: %w", req.Name, err)
	}
	if string(canon) != req.Key {
		return fmt.Errorf("%s: the response answers another question", req.Name)
	}
	tta := res.Scenario.Objective == dnnparallel.ObjectiveTimeToAccuracy
	cost := func(p dnnparallel.PlanSummary) float64 {
		if tta {
			return p.TimeToAccuracySeconds
		}
		return p.IterSeconds
	}
	best := res.Best
	if !best.Feasible || !(cost(best) > 0) {
		return fmt.Errorf("%s: best plan %s is not a feasible positive-cost plan", req.Name, best.Grid)
	}
	listed := false
	for _, p := range res.All {
		if !p.Feasible {
			continue
		}
		if cost(p) < cost(best) {
			return fmt.Errorf("%s: best %s (%g s) loses to %s (%g s)", req.Name, best.Grid, cost(best), p.Grid, cost(p))
		}
		if winnerOf(p).String() == winnerOf(best).String() {
			listed = true
		}
	}
	if !listed {
		return fmt.Errorf("%s: best %s is not among the feasible evaluated plans", req.Name, winnerOf(best))
	}
	if res.Scenario.Grid == "" {
		if res.Stats == nil {
			return fmt.Errorf("%s: a searched plan carries no search_stats", req.Name)
		}
		if !res.Stats.Reconciles() {
			st := res.Stats
			return fmt.Errorf("%s: search stats do not reconcile: %d candidates ≠ %d priced + %d infeasible + %d memory + %d bounded",
				req.Name, st.Candidates, st.Priced, st.InfeasiblePruned, st.MemoryPruned, st.Bounded)
		}
	}
	if ka, ok := knownAnswers[req.Name]; ok {
		if err := ka.check(best); err != nil {
			return fmt.Errorf("%s: %w", req.Name, err)
		}
	}
	return nil
}

func (ka knownAnswer) check(p dnnparallel.PlanSummary) error {
	pl, _ := p.Placement.MarshalText()
	switch {
	case p.Grid != ka.grid:
		return fmt.Errorf("known answer: grid %s, want %s", p.Grid, ka.grid)
	case ka.placement != "" && string(pl) != ka.placement:
		return fmt.Errorf("known answer: placement %s, want %s", pl, ka.placement)
	case ka.batch != 0 && p.Batch != ka.batch:
		return fmt.Errorf("known answer: batch %d, want %d", p.Batch, ka.batch)
	case ka.iter != 0 && math.Abs(p.IterSeconds-ka.iter) > 5e-6:
		return fmt.Errorf("known answer: %.5g s/iter, want %.4g", p.IterSeconds, ka.iter)
	}
	return nil
}
