#!/usr/bin/env bash
# Tier-1 CI gate: test suite + invariant lint, fail on any finding.
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== environment record + GEMM row canary (the top-k sweep's bit-exactness assumption) =="
python scripts/envcheck.py

echo "== tier-1 tests (slowest 15 printed: the per-file time budget) =="
python -m pytest -x -q --durations=15

echo "== golden digest matrices (training + fault invariants + resume + coordinator kill, stream, serve; each file prints its cell count) =="
python scripts/golden.py --check

echo "== tier-1 golden subset, BLAS pinned to one thread (digests must not depend on the BLAS thread count) =="
OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 MKL_NUM_THREADS=1 \
    python -m pytest -q tests/test_golden_digests.py \
    -k "subset_matches or stream_cells_match or serve_cells_match"

echo "== training subset + stream + serve golden cells under two hash seeds (no digest may depend on str/bytes hash order) =="
for hash_seed in 0 1; do
    PYTHONHASHSEED=$hash_seed python -m pytest -q tests/test_golden_digests.py \
        -k "subset_matches or stream_cells_match or serve_cells_match"
done

echo "== paper figures (benchmarks/, smoke scale: catches a figure that stops running; strict() only prints rows here) =="
REPRO_BENCH_SCALE=smoke python -m pytest benchmarks/ -q

echo "== repro.lint (per-file rules + F202 worker races) =="
python -m repro.lint src/ --format json

echo "== repro.lint (tests/scripts/benchmarks/examples, hygiene subset) =="
python -m repro.lint --select R001,R101,R102,R103 tests scripts benchmarks examples

echo "== benchmark smoke (the BENCHMARK.json command: four workloads x untraced + traced pass, digest_stable) =="
python3 perf/run.py --smoke > /dev/null

echo "== benchmark workloads at full size, untraced, 3 cycles each (the min_auc floors and full-size paths the smoke pass skips) =="
for workload in train_splpg_serial train_psgdpa_process serve_mixed stream_steady; do
    python3 perf/run.py --workload "$workload" --seconds 1
done

echo "== docs links =="
python scripts/check_links.py

echo "== docs snippets =="
python scripts/check_docs.py
