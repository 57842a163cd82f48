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
# decision journal (codes V4xx).
verify-fixtures:
	dune build
	dune exec bin/annotate.exe -- -c theincredibles-tlr2 \
	  -o _build/verify-track.bin > /dev/null
	dune exec bin/playback.exe -- -c theincredibles-tlr2 \
	  --journal _build/verify-session.journal > /dev/null
	dune exec bin/lint.exe -- verify _build/verify-track.bin \
	  _build/verify-session.journal \
	  examples/default.slo examples/*.fault examples/*.resilience

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
# the chaos test suite (test/test_fault.ml) checks the behaviour.
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

# Energy + resilience + fleet regression gate: the committed baseline
# must reproduce within tolerance (the energy rows, the chaos-ladder
# counts and the fleet scheduler counts), and a synthetic 10% energy
# regression must trip the gate. Runs in _build/gate so the committed
# BENCH_*.json artifacts are not overwritten by the partial reports
# these runs produce.
gate:
	dune build
	mkdir -p _build/gate
	cd _build/gate && ../default/bench/main.exe energy resilience-ladder \
	  fleet --baseline ../../BENCH_baseline.json --gate > /dev/null
	cd _build/gate && ../default/bin/lint.exe verify BENCH_session.journal \
	  BENCH_ladder.journal BENCH_fleet.journal > /dev/null
	cd _build/gate && ! ../default/bench/main.exe energy resilience-ladder \
	  fleet --baseline ../../BENCH_baseline.json --gate \
	  --inject-regression 10 > /dev/null
	@echo "gate: baseline reproduces; injected 10% regression trips it;"
	@echo "gate: the bench journals pass the offline V4xx audit"

# Regenerate the committed bench baseline (energy rows, chaos-ladder
# counts, fleet scheduler counts). Do this ONLY alongside a reasoned
# diff in the PR: state what moved, by how much, and why the new
# numbers are correct — the gate exists to make silent drift
# impossible.
baseline:
	dune build
	mkdir -p _build/gate
	cd _build/gate && ../default/bench/main.exe energy resilience-ladder \
	  fleet --write-baseline ../../BENCH_baseline.json
	@echo
	@echo "BENCH_baseline.json regenerated. Commit it together with a"
	@echo "reasoned diff (what moved, by how much, why it is correct)."

clean:
	dune clean

# Formatting: the tree is hand-formatted in ocamlformat's default
# style, but `dune build @fmt` is NOT part of `check` because the
# toolchain image ships no ocamlformat binary. If you have one
# locally, add an .ocamlformat with a pinned version before running
# it, so CI and local runs agree.
