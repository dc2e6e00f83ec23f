"""The benchmark's contract with the program, checked in tier-1.

``perf/run.py`` imports the program and ``perf/trace.py`` patches it by
name; when a name either uses is gone, or an output check of a workload
fails, a benchmark run exits non-zero.  ``perf/test_smoke.py`` sits
outside tier-1's ``testpaths``, so this module runs every workload at
``--smoke`` size, untraced and traced, and resolves every trace target
the way the tracer does.  It only reads ``perf/``.
"""

from __future__ import annotations

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("train_splpg_serial", "train_psgdpa_process", "serve_mixed",
             "stream_steady")


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_is_correct(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perf" / "run.py"), "--smoke",
         "--workload", workload, "--trace", str(trace)],
        capture_output=True, text=True, timeout=300, check=False, cwd=ROOT)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout[-3000:]


def test_every_trace_target_resolves():
    """Each ``TARGETS`` entry names a callable the tracer can wrap: a
    method found in its owner's own ``vars`` (where ``install`` looks),
    or a module-level function."""
    spec = importlib.util.spec_from_file_location(
        "perf_trace", ROOT / "perf" / "trace.py")
    trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace)
    assert trace.TARGETS
    for module_name, qualname, _, _ in trace.TARGETS:
        module = importlib.import_module(module_name)
        owner_name, _, attr = qualname.rpartition(".")
        target = (vars(getattr(module, owner_name)).get(attr) if owner_name
                  else getattr(module, attr, None))
        assert callable(target), f"{module_name}.{qualname}"
