#!/bin/sh
# Tier-1 gate: the checks every change must pass before merging.
#
#   1. fast test suite  — pytest -m "not slow and not serve and not faults"
#                         (the sub-minute core: storage, cube, executor,
#                         obs invariants; the slow/serve/faults suites run
#                         in the full gate, `PYTHONPATH=src python -m pytest`)
#   2. bench check      — re-runs every smoke-sized checked-in baseline in
#                         results/ (build, serve, shard, vector, anyk,
#                         ingest, adaptive) with its embedded config and
#                         fails on any metric outside its declared
#                         tolerance and on any gate flag that differs from
#                         the baseline's (see repro/bench/check.py).  Each
#                         standalone `bench <name> --smoke` exits non-zero
#                         only on gate flags check already compares, so
#                         they are not run again here (the CI faults job
#                         still drives five of them through their CLIs).
#   3. obs coverage     — >= 85% line coverage on src/repro/obs via the
#                         stdlib tracer (scripts/obs_coverage.py)
#
# Run from the repository root:  sh scripts/tier1.sh
set -e

cd "$(dirname "$0")/.."
export PYTHONPATH=src
# Per-test wall-clock budget (stdlib SIGALRM watchdog, tests/conftest.py):
# a wedged shard worker fails its one test with stack dumps instead of
# stalling the whole gate.  Tests may tighten it with @pytest.mark.timeout.
export REPRO_TEST_TIMEOUT="${REPRO_TEST_TIMEOUT:-300}"

echo "== tier1 1/3: fast test suite =="
python -m pytest -m "not slow and not serve and not faults" -q

echo "== tier1 2/3: bench regression gate (smoke) =="
python -m repro.bench check --baseline results/ --smoke

echo "== tier1 3/3: obs coverage floor =="
python scripts/obs_coverage.py

echo "tier1: all gates passed"
