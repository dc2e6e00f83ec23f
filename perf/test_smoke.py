"""Smoke test of the benchmark itself (``python -m pytest perf/ -q``).

Outside tier-1's ``testpaths``: it runs the whole suite at ``--smoke``
size (600-node fixture, 3 segments, under 30 s) and checks the shape of
what comes out, not the numbers.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent


@pytest.fixture(scope="module")
def smoke_document(tmp_path_factory):
    """One ``run.py --smoke`` of every workload, both passes."""
    out = tmp_path_factory.mktemp("perf") / "smoke.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(out)],
        capture_output=True, text=True, timeout=300, check=False)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    with open(out, encoding="utf-8") as handle:
        return out, json.load(handle)


def test_document_has_exactly_the_declared_names(smoke_document):
    _, document = smoke_document
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    (run,) = document["runs"]
    assert sorted(run["workloads"]) == sorted(
        w["name"] for w in spec["workloads"])
    for name, entry in run["workloads"].items():
        for group in ("end_to_end", "per_layer"):
            declared = {m["name"]: m["unit"] for m in spec[group]}
            assert set(entry[group]) == set(declared), (name, group)
            for metric, reading in entry[group].items():
                assert reading["unit"] == declared[metric]
        assert entry["digest_stable"] == 1
        assert entry["failed"] <= entry["attempted"]


def test_result_compared_with_itself_passes(smoke_document):
    path, _ = smoke_document
    proc = subprocess.run(
        [sys.executable, str(HERE / "compare.py"), str(path), str(path)],
        capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert "REGRESSION" not in proc.stdout
    assert "MISSING" not in proc.stdout
