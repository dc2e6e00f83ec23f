#!/usr/bin/env bash
# Tier-1 CI gate: test suite + invariant lint, fail on any finding.
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== tier-1 tests (slowest 15 printed: the per-file time budget) =="
python -m pytest -x -q --durations=15

echo "== golden digest matrices (560 training + 13 resume + 8 stream + 14 serve cells) =="
python scripts/golden.py --check

echo "== repro.lint =="
python -m repro.lint src/ --format json

echo "== repro.lint --deep (baseline-gated) =="
python -m repro.lint --deep src/ --baseline lint-baseline.json --format json

echo "== repro.lint (tests/scripts/benchmarks, hygiene subset) =="
python -m repro.lint --select R001,R101,R102,R103 tests scripts benchmarks

echo "== chaos smoke (fault tolerance) =="
python -m repro.faults chaos --smoke

echo "== kill-driver smoke (SIGKILL coordinator, bit-identical resume; splpg + llcg) =="
python -m repro.faults chaos --smoke --kill-driver

echo "== serve smoke (cross-backend digest) =="
python -m repro.serve --smoke

echo "== stream smoke (cross-backend digest under churn/faults) =="
python -m repro.stream --smoke

echo "== bench smoke (schema gate) =="
python scripts/bench.py --smoke
python scripts/bench.py --smoke --suite serve
python scripts/bench.py --smoke --suite sync
python scripts/bench.py --smoke --suite partition
python scripts/bench.py --smoke --suite checkpoint
python scripts/bench.py --smoke --suite stream

echo "== benchmark smoke (the BENCHMARK.json command: four workloads x untraced + traced pass, digest_stable) =="
python3 perf/run.py --smoke > /dev/null

echo "== docs links =="
python scripts/check_links.py

echo "== docs snippets =="
python scripts/check_docs.py
