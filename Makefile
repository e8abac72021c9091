# Convenience targets; everything is plain dune underneath.
#
# Formatting: the project is hand-formatted in the default ocamlformat
# style, but no `.ocamlformat` file is committed because the toolchain
# this repo pins does not ship ocamlformat. If you have it installed,
# `ocamlformat --enable-outside-detected-project` matches the style.

.PHONY: all build test check bench bench-check bench-parallel \
	bench-faults bench-async bench-monitor bench-serve bench-micro \
	bench-quick report-smoke serve-smoke sim-smoke clean

all: build

build:
	dune build

test:
	dune runtest

# The one-stop gate: what CI (and reviewers) run. `dune runtest`
# includes the incremental hill climb's agreement with the from-scratch
# climb (test/test_baselines.ml); the parallel smoke run checks that the
# strategy is bit-identical at 1, 2 and 4 domains; the faults smoke runs
# the hardened distributed protocol under a seeded drop/crash/cut plan
# and requires recovery (no JSON written by either); the async
# smoke simulates one topology synchronously and on a slow lower tier
# and requires completion to rise while the traffic stays pinned; the
# simulate --faults/--link line exercises the same machinery end to end
# through the CLI; bench-quick cross-checks the event engine's pairing
# heap against a stable sort (the Tree.Flat kernels' agreement with the
# list-returning reference in test/tree_oracle.ml runs in `dune runtest`,
# test/test_flat.ml); the monitor smoke replays the synthetic
# drift matrix and requires steady traffic to stay silent while every
# drift shape fires; report-smoke drives --trace/--telemetry recording
# (the --trace JSONL must carry strategy.attribution snapshots),
# the report command's three renderers, and a --diff of a trace against
# itself (which must come back clean); the serve smoke replays the
# adaptive-serving matrix contract (steady silent, hotspot recovered
# within budget) and serve-smoke drives `hbn_cli serve` --record/--replay
# end to end; sim-smoke drives `hbn_cli simulate` the same way (tracing
# leaves stdout alone, telemetry is deterministic, a vanishing link
# latency completes); bench-check re-runs the case matrix behind every
# committed BENCH_*.json and diffs the file against it, then proves the
# gate can fail.
check:
	dune build && dune runtest \
	  && dune exec bench/parallel.exe -- --smoke \
	  && $(MAKE) bench-quick \
	  && dune exec bench/faults.exe -- --smoke \
	  && dune exec bench/async.exe -- --smoke \
	  && dune exec bench/monitor.exe -- --smoke \
	  && dune exec bench/serve.exe -- --smoke \
	  && dune exec bin/hbn_cli.exe -- simulate --kind balanced --arity 3 \
	       --height 3 --workload zipf --objects 8 --seed 7 \
	       --faults "drop=0.15,until=60,crash=2:10-30" --link "1:64,1:32" \
	  && dune exec test/test_main.exe -- test exec \
	  && $(MAKE) report-smoke \
	  && $(MAKE) serve-smoke \
	  && $(MAKE) sim-smoke \
	  && $(MAKE) bench-check

bench:
	dune exec bench/pipeline.exe

# Fails (exit 1) if a fresh run of any case matrix diverges from its
# committed BENCH_*.json (every file holds deterministic fields only;
# the meta header is ignored); each divergence is reported by JSON path.
# Then runs the checker on a copy of BENCH_serve.json with one value
# altered and requires exit 1 and a message naming that value's path.
BENCH_CHECK_BAD = /tmp/hbn_bench_check_bad.json
bench-check:
	dune exec bench/check.exe
	sed 's/"workload":"steady","epochs":32/"workload":"steady","epochs":33/' \
	  BENCH_serve.json > $(BENCH_CHECK_BAD)
	status=0; dune exec --no-build bench/check.exe -- $(BENCH_CHECK_BAD) \
	  2> $(BENCH_CHECK_BAD).err || status=$$?; \
	  grep -q 'cases\[0\]\.epochs 33 (baseline) <> 32 (fresh)' \
	    $(BENCH_CHECK_BAD).err && test $$status -eq 1; \
	  ok=$$?; rm -f $(BENCH_CHECK_BAD) $(BENCH_CHECK_BAD).err; test $$ok -eq 0
	@echo "bench-check: an altered BENCH_serve.json fails the gate by path"

# Fault-injection recovery profile of the hardened distributed nibble
# under seeded drop/crash/cut plans; writes BENCH_faults.json.
bench-faults:
	dune exec bench/faults.exe

# Asynchronous-simulation profile: the same traffic per topology,
# simulated under each per-level delay/bandwidth link model; writes
# BENCH_async.json (completion varies with the link, congestion does
# not).
bench-async:
	dune exec bench/async.exe

# Streaming-monitor detection profile: synthetic drift workloads through
# the folding telemetry collector and the default detectors; writes
# BENCH_monitor.json (refuses to write if the hit/miss contract fails).
bench-monitor:
	dune exec bench/monitor.exe

# Trace-analytics smoke: trace a pipeline run plus a telemetry-recording
# fault run, then feed both files to `report` in all three formats
# (table to the terminal, json/chrome parse-checked by the command
# itself — any malformed line or analysis crash fails the target), and
# diff the telemetry trace against itself — monitors recomputed on both
# sides must agree exactly, so the verdict has to be "identical".
report-smoke:
	dune build bin/hbn_cli.exe
	dune exec --no-build bin/hbn_cli.exe -- place --kind balanced --arity 3 \
	  --height 3 --workload zipf --objects 8 --seed 7 \
	  --trace /tmp/hbn_report_smoke_trace.jsonl > /dev/null
	grep -q '"ev":"attribution","name":"strategy.attribution"' \
	  /tmp/hbn_report_smoke_trace.jsonl
	dune exec --no-build bin/hbn_cli.exe -- simulate --kind balanced \
	  --arity 3 --height 2 --workload zipf --seed 7 \
	  --faults "drop=0.1,until=50" \
	  --telemetry /tmp/hbn_report_smoke_tel.jsonl > /dev/null
	dune exec --no-build bin/hbn_cli.exe -- report /tmp/hbn_report_smoke_trace.jsonl
	dune exec --no-build bin/hbn_cli.exe -- report /tmp/hbn_report_smoke_trace.jsonl \
	  --format json > /dev/null
	dune exec --no-build bin/hbn_cli.exe -- report /tmp/hbn_report_smoke_trace.jsonl \
	  --format chrome > /dev/null
	dune exec --no-build bin/hbn_cli.exe -- report /tmp/hbn_report_smoke_tel.jsonl
	dune exec --no-build bin/hbn_cli.exe -- report /tmp/hbn_report_smoke_tel.jsonl \
	  --format json > /dev/null
	dune exec --no-build bin/hbn_cli.exe -- report /tmp/hbn_report_smoke_tel.jsonl \
	  --format chrome > /dev/null
	dune exec --no-build bin/hbn_cli.exe -- report /tmp/hbn_report_smoke_tel.jsonl \
	  --diff /tmp/hbn_report_smoke_tel.jsonl | grep -q "verdict: identical"
	rm -f /tmp/hbn_report_smoke_trace.jsonl /tmp/hbn_report_smoke_tel.jsonl
	@echo "report-smoke: table/json/chrome renderers + self-diff ok"

# Adaptive-serving profile: the four drift generators through the
# epoch-based serving tier (alert-triggered top-k re-optimization under
# a migration byte budget); writes BENCH_serve.json (refuses to write if
# the steady-silent / hotspot-recovery contract fails).
bench-serve:
	dune exec bench/serve.exe

# Serving-tier CLI smoke: run `serve` under hotspot-migration drift while
# recording the generated request tables, replay the recording (which
# must re-optimize the same epochs and migrate the same bytes — the
# summary lines are compared verbatim — and write the same telemetry
# JSONL byte for byte), rerun with --timings (tracing only observes: its
# stdout must be the plain run's, followed by the phase table), and feed
# the recorded telemetry to `report` to prove the serving trace
# round-trips through the analytics pipeline.
serve-smoke:
	dune build bin/hbn_cli.exe
	dune exec --no-build bin/hbn_cli.exe -- serve --kind balanced --arity 3 \
	  --height 3 --objects 8 --drift hotspot_migration --epochs 16 \
	  --serve-seed 11 --record /tmp/hbn_serve_smoke_tables.txt \
	  --telemetry /tmp/hbn_serve_smoke_tel.jsonl > /tmp/hbn_serve_smoke_a.txt
	dune exec --no-build bin/hbn_cli.exe -- serve --kind balanced --arity 3 \
	  --height 3 --objects 8 --serve-seed 11 \
	  --replay /tmp/hbn_serve_smoke_tables.txt \
	  --telemetry /tmp/hbn_serve_smoke_tel_b.jsonl > /tmp/hbn_serve_smoke_b.txt
	diff /tmp/hbn_serve_smoke_a.txt /tmp/hbn_serve_smoke_b.txt
	diff /tmp/hbn_serve_smoke_tel.jsonl /tmp/hbn_serve_smoke_tel_b.jsonl
	dune exec --no-build bin/hbn_cli.exe -- serve --kind balanced --arity 3 \
	  --height 3 --objects 8 --drift hotspot_migration --epochs 16 \
	  --serve-seed 11 --timings > /tmp/hbn_serve_smoke_c.txt
	head -n "$$(wc -l < /tmp/hbn_serve_smoke_a.txt)" /tmp/hbn_serve_smoke_c.txt \
	  | diff /tmp/hbn_serve_smoke_a.txt -
	dune exec --no-build bin/hbn_cli.exe -- report /tmp/hbn_serve_smoke_tel.jsonl \
	  --format json > /dev/null
	rm -f /tmp/hbn_serve_smoke_tables.txt /tmp/hbn_serve_smoke_tel.jsonl \
	  /tmp/hbn_serve_smoke_tel_b.jsonl /tmp/hbn_serve_smoke_a.txt \
	  /tmp/hbn_serve_smoke_b.txt /tmp/hbn_serve_smoke_c.txt
	@echo "serve-smoke: replay, telemetry and --timings stdout identical; report ok"

# Simulator CLI smoke on a balanced a4h3 zipf instance: with --timings
# the stdout must be the plain run's followed by the phase table, two
# --telemetry runs must write the same JSONL byte for byte, and a link
# whose per-hop latency rounds to nothing against the tick time
# (delay 0, bandwidth 1e17) must still complete.
SIM_SMOKE = simulate --kind balanced --arity 4 --height 3 --workload zipf \
	  --objects 16 --seed 7
sim-smoke:
	dune build bin/hbn_cli.exe
	dune exec --no-build bin/hbn_cli.exe -- $(SIM_SMOKE) > /tmp/hbn_sim_smoke_a.txt
	dune exec --no-build bin/hbn_cli.exe -- $(SIM_SMOKE) --timings \
	  > /tmp/hbn_sim_smoke_b.txt
	head -n "$$(wc -l < /tmp/hbn_sim_smoke_a.txt)" /tmp/hbn_sim_smoke_b.txt \
	  | diff /tmp/hbn_sim_smoke_a.txt -
	tail -n "+$$(($$(wc -l < /tmp/hbn_sim_smoke_a.txt) + 1))" \
	  /tmp/hbn_sim_smoke_b.txt | grep -q "| phase"
	dune exec --no-build bin/hbn_cli.exe -- $(SIM_SMOKE) \
	  --telemetry /tmp/hbn_sim_smoke_tel_a.jsonl > /dev/null
	dune exec --no-build bin/hbn_cli.exe -- $(SIM_SMOKE) \
	  --telemetry /tmp/hbn_sim_smoke_tel_b.jsonl > /dev/null
	cmp /tmp/hbn_sim_smoke_tel_a.jsonl /tmp/hbn_sim_smoke_tel_b.jsonl
	dune exec --no-build bin/hbn_cli.exe -- $(SIM_SMOKE) --link 0:1e17 > /dev/null
	rm -f /tmp/hbn_sim_smoke_a.txt /tmp/hbn_sim_smoke_b.txt \
	  /tmp/hbn_sim_smoke_tel_a.jsonl /tmp/hbn_sim_smoke_tel_b.jsonl
	@echo "sim-smoke: --timings stdout, telemetry and a vanishing link latency ok"

# Bechamel timings of the Tree.Flat primitive kernels (path walks,
# batched LCA, scratch reuse, nearest-node assignment) and the event
# engine. No JSON written; ns/run estimates print as a table.
bench-micro:
	dune exec bench/micro_main.exe

# Fast agreement pass — no timing, exit 1 if the pairing heap's pop order
# diverges from a stable sort. Part of `make check`.
bench-quick:
	dune exec bench/micro_main.exe -- --smoke

# Domain-scaling of the per-object pipeline at --jobs 1/2/4: prints wall
# times and speedups (only meaningful on a multicore host) and writes the
# chunk-scheduling rows to BENCH_parallel.json.
bench-parallel:
	dune exec bench/parallel.exe

clean:
	dune clean
