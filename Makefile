# Convenience targets; everything is driven by dune underneath.

.PHONY: all build test check bench perf gate baseline fuzz serve-smoke \
	chaos-smoke explore-smoke clean

all: build

build:
	dune build

test:
	dune runtest

# Tier-1 gate: full build, the complete test suite, and the epicprof
# golden flow (profile the SHA-256 example and validate the emitted
# Chrome trace with the profiler's own JSON parser via the test suite),
# then the fuzz smoke campaign, whose MIR oracle and schedule-contract
# checker guard the compiler and the list scheduler, and the service
# smokes.
check:
	dune build
	dune runtest
	dune exec bin/epicprof.exe -- examples/sha256.c --format=chrome-trace \
	  -o _build/check_trace.json
	dune exec bench/main.exe -- inject-faults --quick
	$(MAKE) fuzz
	$(MAKE) serve-smoke
	$(MAKE) chaos-smoke
	$(MAKE) explore-smoke
	@echo "make check: OK"

bench:
	dune exec bench/main.exe -- table1

# Host simulator throughput per workload (machine-dependent; the gated
# SHA probe plus the other three workloads).
perf:
	dune exec bench/main.exe -- perf

# Benchmark-regression gate: rerun the gated experiments, then compare
# cycle counts (exact), slice counts (exact), campaign wall time
# (budgeted) and host sim rate (lower band, tolerance committed in the
# baseline's meta) against the committed baseline.
gate:
	dune exec bench/main.exe -- table1 resources --json _build/bench_current.json
	dune exec bin/bench_gate.exe -- BENCH_BASELINE.json _build/bench_current.json

# Differential-fuzzing smoke campaign: a fixed seed so CI is
# reproducible, fanned out over the campaign engine.  Campaign stats go
# to stderr; stdout (findings + summary) is byte-identical for any
# --jobs value.
fuzz:
	dune exec bin/epicfuzz.exe -- --seed 0 --cases 1000 --jobs 2

# epicd smoke: spawn the daemon binary in pipe mode for each of two
# passes of the mixed scenario over a shared artifact cache.  epicload
# fails unless every request succeeds, the second pass is byte-identical
# and >= 90% disk hits, and the daemon's reported p95 latency meets the
# SLO — the full service acceptance gate in one command.
#
# Then the concurrent gate: one socket daemon (--max-conns 8), the same
# scenario replayed by 4 clients at once.  epicload fails unless every
# client gets every response back in request order and byte-identical to
# the others, the warm pass stays byte-identical and >= 90% disk hits,
# and the daemon reports dedup_hits > 0 (identical in-flight requests
# were collapsed across connections).  The final stats snapshot lands in
# _build/serve_smoke_stats.json for CI to archive.
serve-smoke:
	dune build bin/epicd.exe bin/epicload.exe
	rm -rf _build/serve_smoke_cache _build/serve_smoke_conc_cache
	rm -f _build/serve_smoke.sock _build/serve_smoke_stats.json
	dune exec bin/epicload.exe -- \
	  --epicd _build/default/bin/epicd.exe \
	  --cache-dir _build/serve_smoke_cache \
	  --scenario mixed --passes 2 --slo-p95-ms 30000 \
	  --slo-ref-rate 1.0e7 --expect-hit-rate 0.9
	_build/default/bin/epicd.exe --socket _build/serve_smoke.sock \
	  --max-conns 8 --jobs 2 --cache-dir _build/serve_smoke_conc_cache & \
	pid=$$!; \
	for i in $$(seq 1 100); do \
	  [ -S _build/serve_smoke.sock ] && break; sleep 0.1; \
	done; \
	_build/default/bin/epicload.exe \
	  --connect _build/serve_smoke.sock --clients 4 \
	  --scenario mixed --passes 2 --slo-p95-ms 30000 \
	  --slo-ref-rate 1.0e7 --expect-hit-rate 0.9 \
	  --stats-json _build/serve_smoke_stats.json; \
	st=$$?; kill $$pid 2>/dev/null; wait $$pid 2>/dev/null; exit $$st
	@echo "serve-smoke: OK"

# Fault-injection campaign against the real daemon: seeded (so a failure
# replays exactly) and wall-clock-cheap (a few seconds warm).  Each
# injection — torn writes, bit flips, garbage/oversized frames, a
# slow-loris client, blown deadlines, SIGKILL and restart — must leave
# the daemon serving byte-identical responses from a >= 90%-warm cache.
# The JSON report lands in _build/chaos_report.json for CI to archive.
chaos-smoke:
	dune build bin/epicd.exe bin/epicload.exe
	rm -rf _build/chaos_smoke_cache
	dune exec bin/epicload.exe -- --chaos --chaos-seed 0 \
	  --epicd _build/default/bin/epicd.exe \
	  --cache-dir _build/chaos_smoke_cache \
	  --chaos-report _build/chaos_report.json --jobs 2
	@echo "chaos-smoke: OK"

# Design-space exploration smoke: a seeded campaign over the small
# workload variants, run cold at --jobs 4 and warm at --jobs 1 against
# the same disk cache.  The frontier document and the stdout report must
# be byte-identical across the two runs (jobs-invariance AND cold/warm
# identity in one comparison), the warm pass must hit the disk cache at
# >= 90%, and at least one discovered multi-op candidate (a GEN_xxxxxx
# custom instruction) must appear on a frontier.  CI raises the budget
# via EXPLORE_BUDGET.
EXPLORE_BUDGET ?= 600

explore-smoke:
	dune build bin/epic_explore.exe
	rm -rf _build/explore_smoke_cache
	dune exec bin/epic_explore.exe -- --small \
	  --budget $(EXPLORE_BUDGET) --seed 1 --jobs 4 \
	  --cache-dir _build/explore_smoke_cache \
	  --json _build/explore_cold.json > _build/explore_cold.txt
	dune exec bin/epic_explore.exe -- --small \
	  --budget $(EXPLORE_BUDGET) --seed 1 --jobs 1 \
	  --cache-dir _build/explore_smoke_cache \
	  --json _build/explore_warm.json \
	  --stats-json _build/explore_stats.json \
	  --expect-hit-rate 0.9 > _build/explore_warm.txt
	cmp _build/explore_cold.json _build/explore_warm.json
	cmp _build/explore_cold.txt _build/explore_warm.txt
	grep -q "GEN_" _build/explore_cold.txt
	@echo "explore-smoke: OK"

# Refresh the committed baseline after an intentional performance change.
baseline:
	dune exec bench/main.exe -- table1 resources --jobs 1 --json BENCH_BASELINE.json

clean:
	dune clean
	rm -f trace.json sha_trace.json
