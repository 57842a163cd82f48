# Convenience targets; dune does the real work.

.PHONY: all build test check bench clean slo-smoke fleet-smoke chaos chaos-ladder lint verify-fixtures gate baseline

all: build

build:
	dune build

test:
	dune runtest

# The tier-1 gate: everything compiles, every suite is green (once
# sequentially, once with a 4-domain pool — PAR_JOBS feeds the CLIs'
# --jobs default, and the parallel suites pick it up too), the
# sources pass the determinism linter, the shipped artifacts verify
# cleanly, a monitored playback run meets the default SLOs, and the
# CLIs survive hostile fault profiles.
check:
	dune build && dune runtest && PAR_JOBS=4 dune runtest --force \
	  && $(MAKE) lint && $(MAKE) verify-fixtures \
	  && $(MAKE) slo-smoke && $(MAKE) fleet-smoke \
	  && $(MAKE) chaos && $(MAKE) chaos-ladder \
	  && $(MAKE) gate

# Static gate 1: the determinism linter over the library and tool
# sources (rules L001-L012 plus the transitive effect closure, see
# README "Static checks") and the concurrency-safety analyzer (rules
# C001-C006 over the cross-module call graph). Exits 1 on any finding
# without a reasoned `lint: allow` comment.
lint:
	dune exec bin/lint.exe -- sources lib bin
	dune exec bin/lint.exe -- concurrency lib bin

# Static gate 2: the offline artifact verifier over everything the
# repo ships — the example SLO and fault profiles, a freshly encoded
# annotation track (codes V1xx/V2xx/V3xx), and a freshly recorded
# decision journal (codes V4xx). The negative legs: a copy of the
# track and of the journal cut one byte short must each fail the
# audit (exit 1).
verify-fixtures:
	dune build
	dune exec bin/annotate.exe -- -c theincredibles-tlr2 \
	  -o _build/verify-track.bin > /dev/null
	dune exec bin/playback.exe -- -c theincredibles-tlr2 \
	  --journal _build/verify-session.journal > /dev/null
	dune exec bin/lint.exe -- verify _build/verify-track.bin \
	  _build/verify-session.journal \
	  examples/default.slo examples/*.fault examples/*.resilience
	for f in verify-track.bin verify-session.journal; do \
	  head -c $$(( $$(wc -c < _build/$$f) - 1 )) _build/$$f > _build/cut-$$f; \
	  dune exec bin/lint.exe -- verify _build/cut-$$f > /dev/null; \
	  test $$? -eq 1 || exit 1; \
	done

# End-to-end health gate: monitored playback of a seeded clip against
# the default SLO file must print a clean report and exit 0.
slo-smoke:
	dune exec bin/playback.exe -- -c theincredibles-tlr2 --monitor \
	  --slo examples/default.slo > /dev/null

# Fleet health gate: a small fleet through the shard scheduler CLI
# must meet the fleet SLOs (no failed sessions, non-negative savings)
# and leave a decision journal that passes the offline V4xx audit.
fleet-smoke:
	dune build
	dune exec bin/fleet_cli.exe -- --sessions 150 --width 16 --height 12 \
	  --monitor --journal _build/fleet-smoke.journal -j 4 > /dev/null
	dune exec bin/lint.exe -- verify _build/fleet-smoke.journal > /dev/null

# Chaos gate: every CLI must survive the example fault profiles
# (burst loss, corruption, reorder, jitter, bandwidth collapse)
# without crashing. Exit codes are asserted, output is discarded —
# the chaos test suite (test/test_fault.ml) checks the behaviour. A
# quality outside 0-100 % is a usage error (exit 124), not a crash.
# Bernoulli loss reaches a session only as a fault model, so its run
# also leaves a journal for the offline audit.
chaos:
	dune build
	dune exec bin/playback.exe -- -c theincredibles-tlr2 \
	  --fault-profile examples/burst.fault > /dev/null
	dune exec bin/playback.exe -- -c theincredibles-tlr2 \
	  --fault-profile examples/chaos.fault > /dev/null
	dune exec bin/playback.exe -- -c theincredibles-tlr2 \
	  --loss-model gilbert --loss 0.08 --burst 3 > /dev/null
	dune exec bin/playback.exe -- -c theincredibles-tlr2 \
	  --loss-model bernoulli --loss 0.05 \
	  --journal _build/chaos-bernoulli.journal > /dev/null
	dune exec bin/lint.exe -- verify _build/chaos-bernoulli.journal > /dev/null
	dune exec bin/plan.exe -- -c theincredibles-tlr2 -t 2 \
	  --fault-profile examples/burst.fault > /dev/null
	dune exec bin/annotate.exe -- -c theincredibles-tlr2 \
	  --fault-profile examples/chaos.fault > /dev/null
	dune exec bin/characterize.exe -- --monitor --slo examples/default.slo \
	  > /dev/null
	dune exec bin/annotate.exe -- -c theincredibles-tlr2 --quality=150 \
	  > /dev/null 2>&1; test $$? -eq 124
	dune exec bin/playback.exe -- -c theincredibles-tlr2 --quality=-5 \
	  > /dev/null 2>&1; test $$? -eq 124

# Chaos × resilience gate: the same hostile channel with the control
# plane on. Every CLI must exit 0 under both shipped profiles — a
# breaker that opens or a ladder that bottoms out degrades the session,
# it never aborts it. The journaled run is audited offline (V4xx/V5xx
# behaviour lives in test/test_resilience.ml; this asserts exit codes).
chaos-ladder:
	dune build
	for p in examples/default.resilience examples/aggressive.resilience; do \
	  dune exec bin/playback.exe -- -c theincredibles-tlr2 \
	    --fault-profile examples/chaos.fault --resilience $$p \
	    --journal _build/chaos-ladder.journal > /dev/null || exit 1; \
	  dune exec bin/lint.exe -- verify _build/chaos-ladder.journal \
	    > /dev/null || exit 1; \
	  dune exec bin/plan.exe -- -c theincredibles-tlr2 -t 2 \
	    --fault-profile examples/chaos.fault --resilience $$p \
	    > /dev/null || exit 1; \
	  dune exec bin/annotate.exe -- -c theincredibles-tlr2 \
	    --fault-profile examples/chaos.fault --resilience $$p \
	    > /dev/null || exit 1; \
	  dune exec bin/characterize.exe -- --resilience $$p \
	    > /dev/null || exit 1; \
	done

bench:
	dune exec bench/main.exe

# Bench report gate: BENCH_report.json is the one committed bench
# artifact and holds only simulated results (energy rows, the codec
# work row, the resilience sweep, the chaos-ladder counts, the fleet
# scheduler counts). Regenerate it once in _build/gate, so the
# committed files are not overwritten, and compare it with the
# committed copy (`bench gate`: counts exact, _pct fields within half
# a point, other floats within 1%). The bench journals must pass the
# offline V4xx audit. The negative legs must exit 1: a synthetic 10%
# energy regression on the same run, and a fixture pair whose
# duplicated metric names would otherwise compare against the first
# row with that name.
GATE_RUN = _build/gate/BENCH_report.json
BENCH = _build/default/bench/main.exe

gate:
	dune build
	mkdir -p _build/gate
	cd _build/gate && ../default/bench/main.exe energy resilience \
	  resilience-ladder fleet > /dev/null
	cd _build/gate && ../default/bin/lint.exe verify BENCH_session.journal \
	  BENCH_ladder.journal BENCH_fleet.journal > /dev/null
	$(BENCH) gate BENCH_report.json $(GATE_RUN)
	$(BENCH) gate BENCH_report.json $(GATE_RUN) --inject-regression 10 \
	  > /dev/null; test $$? -eq 1
	$(BENCH) gate test/fixtures/gate/duplicate-committed.json \
	  test/fixtures/gate/duplicate-run.json > /dev/null; test $$? -eq 1
	@echo "gate: the committed report reproduces; an injected 10% regression"
	@echo "gate: and duplicated metric names trip it; the bench journals pass"
	@echo "gate: the offline V4xx audit"

# Regenerate the committed bench report and energy flamegraph. Do this
# ONLY alongside a reasoned diff in the change: state what moved, by
# how much, and why the new numbers are correct — the gate exists to
# make silent drift impossible.
baseline:
	dune build
	mkdir -p _build/gate
	cd _build/gate && ../default/bench/main.exe energy resilience \
	  resilience-ladder fleet > /dev/null
	cp $(GATE_RUN) BENCH_report.json
	cp _build/gate/BENCH_energy.folded BENCH_energy.folded
	@echo "BENCH_report.json and BENCH_energy.folded regenerated. Commit them"
	@echo "with a reasoned diff (what moved, by how much, why it is correct)."

clean:
	dune clean

# Formatting: the tree is hand-formatted in ocamlformat's default
# style, but `dune build @fmt` is NOT part of `check` because the
# toolchain image ships no ocamlformat binary. If you have one
# locally, add an .ocamlformat with a pinned version before running
# it, so CI and local runs agree.
