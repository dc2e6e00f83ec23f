#!/usr/bin/env bash
# Tier-1 CI gate: test suite + invariant lint, fail on any finding.
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== tier-1 tests (slowest 15 printed: the per-file time budget) =="
python -m pytest -x -q --durations=15

echo "== golden digest matrices (training + fault invariants + resume + coordinator kill, stream, serve; each file prints its cell count) =="
python scripts/golden.py --check

echo "== repro.lint (per-file rules + F202 worker races) =="
python -m repro.lint src/ --format json

echo "== repro.lint (tests/scripts/benchmarks/examples, hygiene subset) =="
python -m repro.lint --select R001,R101,R102,R103 tests scripts benchmarks examples

echo "== benchmark smoke (the BENCHMARK.json command: four workloads x untraced + traced pass, digest_stable) =="
python3 perf/run.py --smoke > /dev/null

echo "== docs links =="
python scripts/check_links.py

echo "== docs snippets =="
python scripts/check_docs.py
