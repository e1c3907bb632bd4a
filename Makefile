.PHONY: check build test faultcheck gates trace serve bench-json bench-regress perfbench-smoke

build:
	dune build

test:
	dune runtest

# one seeded fault-injection pipeline run: every injected corruption must be
# caught by the verify/differential gates (exit 0 = final module ok); then
# noelle-fuzz checks DOALL, HELIX, DSWP, LICM and TimeSqueezer each as one
# gated pipeline pass over five generated programs (any rollback fails),
# and an unknown tool must be a usage error (exit exactly 124)
faultcheck: build
	dune exec bin/noelle_pipeline.exe -- --fuzz-seed 3 --fault-seed 8 -q
	dune exec bin/noelle_pipeline.exe -- --fuzz-seed 3 --task-fault-seed 5 --kill-task 0 -q
	dune exec bin/noelle_fuzz.exe -- --seed 1 -n 5 -o _fuzz --check doall
	dune exec bin/noelle_fuzz.exe -- --seed 1 -n 5 -o _fuzz --check helix
	dune exec bin/noelle_fuzz.exe -- --seed 1 -n 5 -o _fuzz --check dswp
	dune exec bin/noelle_fuzz.exe -- --seed 1 -n 5 -o _fuzz --check licm
	dune exec bin/noelle_fuzz.exe -- --seed 1 -n 5 -o _fuzz --check time
	@st=0; dune exec bin/noelle_fuzz.exe -- --check bogus 2>/dev/null || st=$$?; \
	if [ $$st -ne 124 ]; then \
	  echo "faultcheck: noelle-fuzz --check bogus must exit 124 (exit $$st)"; exit 1; \
	fi

# corpus gates (noelle-gate, one harness): lint = zero unsuppressed
# noelle-check errors over every kernel and fuzz seeds 1-5; meta = the
# metadata trust gate (embed, round-trip, fast reloads, verify-meta
# pipeline, clean audit) over the first 10 kernels; validate = trace
# equivalence with zero rollbacks on every kernel (the final check is the
# Psim replay) and planted effect reorders rejected with witnesses over
# 50 seeds (DESIGN.md §12); bounds = static trips vs measured, decision
# parity >= 80% and speedup geomean within 10% (DESIGN.md §13); vec =
# every widened kernel verifies and clears the trace gate, with the
# must-vectorize and if-conversion assertions (DESIGN.md §16)
gates: build
	dune exec bin/noelle_gate.exe -- -q

# telemetry smoke: run the standard stack under tracing on a parallelizable
# kernel; the trace must round-trip through the repo's own JSON parser and
# carry spans from at least 3 layers (analyses, pipeline passes, psim tasks)
trace: build
	dune exec bin/noelle_trace.exe -- --kernel histogram --check -q

# analysis-as-a-service gates (DESIGN.md §14, §15).  Replay (seed 0, 3
# modules, 150 requests) must answer from the persistent store across a
# process restart, and the same two runs are the SLO gate: their per-kind
# p50/p95/p99/p999 request latencies are printed, written to
# slo_report.txt and slo.prom, and checked against the budgets in slo.json
# (plus max shed % and deadline misses).  The negative leg proves the SLO
# can fail for its own reason: with a 1us budget the replay must exit
# exactly 1 with VIOLATION lines on stderr.  Overload must shed to
# conservative (never wrong) degraded answers; the 50-seed
# kill-and-recover soak must produce answers identical to cold runs with
# every corrupt artifact quarantined.  Each run self-checks its serve.*
# counters and leaves serve_metrics.json and _serve/flight.json.
serve: build
	dune exec bin/noelle_serve.exe -- --requests 150 --report slo_report.txt --prom slo.prom
	@st=0; dune exec bin/noelle_serve.exe -- --requests 150 --p99-budget-us 1 -q \
	  2>_serve/slo_negative.err || st=$$?; \
	if [ $$st -ne 1 ] || ! grep -q VIOLATION _serve/slo_negative.err; then \
	  echo "serve: a 1us p99 budget must exit 1 with VIOLATION lines (exit $$st)"; \
	  cat _serve/slo_negative.err; exit 1; \
	fi
	dune exec bin/noelle_serve.exe -- --overload --requests 200 -q
	dune exec bin/noelle_serve.exe -- --faults --seeds 50 -q

# machine-readable benchmark rows (wall ms, counter deltas, derived
# gauges per kernel), plus the synthetic scaling comparison of the sparse
# analysis engine against the naive solver/builder paths (DESIGN.md §11)
bench-json: build
	dune exec bench/main.exe -- --json figure3 figure5 scaling bounds serve slo

# bench-history regression gate: rerun the instrumented sections and diff
# them against the checked-in BENCH_*.json baselines — counter deltas must
# match exactly (they are deterministic functions of the seeded
# workloads), wall/gauges within a generous ratio, and each section's
# required keys present with nothing degraded (bench/main.ml
# required_keys).  The comparator self-checks by injecting a one-count
# counter regression, dropping each required key and planting a
# degraded counter, all of which must be detected.  The fresh rows land
# in _bench/; the checked-in baselines are never rewritten.
bench-regress: build
	dune exec bench/main.exe -- --compare figure3 figure5 scaling bounds serve slo

# benchmark smoke (perfbench/NOTES.md): build the benchmark and run every
# workload for 3 s untraced, each of which must report "correct": true;
# then plant one wrong answer in compile, which the benchmark's own
# Psim-vs-reference check must count as "failed": 1
PERFBENCH_CHECK = python3 -c 'import json, sys; \
  r = json.loads(sys.stdin.read().splitlines()[-1]); \
  ok = r["failed"] == 1 if sys.argv[2] == "planted" else r["correct"] is True; \
  print("perfbench-smoke:", sys.argv[1], "correct=%s failed=%s" % (r["correct"], r["failed"])); \
  sys.exit(0 if ok else 1)'

perfbench-smoke:
	for w in compile analyze serve; do \
	  python3 perfbench/run.py --workload $$w --seed 1 --seconds 3 --trace 0 \
	    | $(PERFBENCH_CHECK) $$w correct || exit 1; \
	done
	python3 perfbench/run.py --workload compile --seed 1 --seconds 3 --trace 0 --plant-error \
	  | $(PERFBENCH_CHECK) compile planted

check: build test faultcheck gates serve trace bench-regress
