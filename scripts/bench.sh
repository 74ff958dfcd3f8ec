#!/usr/bin/env sh
# Rerun the benchmark trajectory recorded in BENCH_plan.json: the
# planner-facing benchmarks (full search, pipeline search, scenario
# canonicalization) with 6 repetitions of 2s each — enough samples for
# benchstat to attach confidence intervals — plus the dnnserve cache
# benchmarks, plus the search-engine A/B: interleaved pairs of the
# serial exhaustive baseline (workers=1, bounds off) against the
# parallel pruned engine (bounds on) on the staged AlexNet search,
# alternating A and B each pair so machine drift cancels instead of
# biasing the comparison. The engine side also sweeps -cpu 1,2,4 so the
# worker scaling is recorded per GOMAXPROCS. A second interleaved A/B
# pits the iteration objective against the time-to-accuracy campaign
# search on the same scenario (the tta_search_overhead record). With
# BENCH_BASE set to a commit, a third interleaved A/B pits that commit's
# tree against this one on the two- and three-level searches (the
# level_span_speedup record, 10 pairs alternating which side runs
# first): both test binaries are built first, the base from a
# `git archive` of BENCH_BASE in a temporary directory, and their lines
# go to <output-file>.base and <output-file>.head for
# `benchstat <output-file>.base <output-file>.head`.
#
# Usage: [BENCH_BASE=<commit>] scripts/bench.sh [output-file]   (default: bench.txt)
set -e
cd "$(dirname "$0")/.."
out="${1:-bench.txt}"
go test -run '^$' -bench 'BenchmarkPlanScenario|BenchmarkPlanScenarioPipeline|BenchmarkScenarioCanonical' \
	-benchmem -count=6 -benchtime=2s . | tee "$out"
go test -run '^$' -bench 'BenchmarkServePlan' -benchmem -count=3 ./internal/serve/ | tee -a "$out"
# Interleaved A/B: 6 pairs of (serial baseline, parallel engine), both
# swept over GOMAXPROCS so each comparison is same-scheduler-config.
i=1
while [ "$i" -le 6 ]; do
	go test -run '^$' -bench 'BenchmarkPlanScenarioSerialBaseline$' -cpu 1,4 -benchmem -benchtime=2s . | tee -a "$out"
	go test -run '^$' -bench 'BenchmarkPlanScenarioParallel$' -cpu 1,2,4 -benchmem -benchtime=2s . | tee -a "$out"
	i=$((i + 1))
done
# Interleaved A/B for the time-to-accuracy objective: pairs of (iteration
# baseline, tta campaign) on the same AlexNet P=512 question, feeding the
# tta_search_overhead record — the iteration side is the pre-existing hot
# path and must not regress.
i=1
while [ "$i" -le 6 ]; do
	go test -run '^$' -bench 'BenchmarkPlanScenarioTTAIterBaseline$' -benchmem -benchtime=2s . | tee -a "$out"
	go test -run '^$' -bench 'BenchmarkPlanScenarioTTA$' -benchmem -benchtime=2s . | tee -a "$out"
	i=$((i + 1))
done
if [ -n "${BENCH_BASE:-}" ]; then
	tmp=$(mktemp -d)
	trap 'rm -rf "$tmp"' EXIT
	git archive "$BENCH_BASE" | tar -x -C "$tmp"
	(cd "$tmp" && go test -c -o "$tmp/base.test" .)
	go test -c -o "$tmp/head.test" .
	: > "$out.base"
	: > "$out.head"
	# 10 pairs, alternating which side runs first.
	i=1
	while [ "$i" -le 10 ]; do
		sides="base head"
		[ $((i % 2)) -eq 0 ] && sides="head base"
		for side in $sides; do
			"$tmp/$side.test" -test.run '^$' -test.bench 'BenchmarkPlanScenario(TwoLevel|ThreeLevel)$' \
				-test.benchmem -test.benchtime=2s | tee -a "$out.$side"
		done
		i=$((i + 1))
	done
fi
echo "wrote $out"
