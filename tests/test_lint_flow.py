"""Fixture corpus for the whole-program rule F202 (worker races).

F202 is exercised with true positives and true negatives over small
self-contained "projects" (modpath → source mappings fed straight to
:meth:`repro.lint.LintEngine.check_sources`), so the call graph and
worker cone are pinned down by behavior, not structure — and once over
the real source tree, with its one known race re-introduced.
"""

import textwrap
from pathlib import Path

import pytest

from repro.lint import LintEngine
from repro.lint.engine import _iter_python_files, _module_path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def _dedent(mapping):
    return {path: textwrap.dedent(src) for path, src in mapping.items()}


def _f202(sources):
    return LintEngine().select(["F202"]).check_sources(sources)


def _lines(findings, rule_id):
    return sorted((f.path, f.line) for f in findings
                  if f.rule_id == rule_id)


F202_SOURCES = _dedent({
    "repro/flowfix/shared.py": '''\
    """Fixture: module-global shared state touched by workers."""
    import threading

    RESULTS = []
    _RESULTS_LOCK = threading.Lock()


    def work(item):
        """TP: worker-executed append to a module global."""
        RESULTS.append(item)
        return item


    def work_locked(item):
        """TN: the same write, under a lock."""
        with _RESULTS_LOCK:
            RESULTS.append(item)
        return item


    def not_a_worker(item):
        """TN: same write, but never shipped to a pool."""
        RESULTS.append(item)
        return item
    ''',
    "repro/flowfix/pool.py": '''\
    """Fixture: the driver that makes them workers."""
    from concurrent.futures import ThreadPoolExecutor

    from repro.flowfix.shared import work, work_locked


    def run_all(items):
        """Submit work items; only submitted functions are workers."""
        pool = ThreadPoolExecutor(2)
        futs = [pool.submit(work, item) for item in items]
        futs += [pool.submit(work_locked, item) for item in items]
        out = [f.result() for f in futs]
        pool.shutdown()
        return out
    ''',
})

PROC_SOURCES = _dedent({
    "repro/flowfix/proc.py": '''\
    """Fixture: process-spawned worker."""
    from multiprocessing import Process

    SEEN = {}


    def child(key):
        """TP: forked worker writing a parent-module global."""
        SEEN[key] = True


    def launch(key):
        """Spawns the child process."""
        proc = Process(target=child, args=(key,))
        proc.start()
        return proc
    ''',
})


def test_f202_flags_worker_write_to_module_global():
    """The submitted function's unguarded append is a race."""
    findings = _f202(F202_SOURCES)
    assert _lines(findings, "F202") == [("repro/flowfix/shared.py", 10)]
    (finding,) = findings
    assert "RESULTS" in finding.message
    assert "work()" in finding.message


def test_f202_accepts_locked_write_and_non_worker_code():
    """A lock guard, or not being submitted at all, silences F202."""
    findings = _f202(F202_SOURCES)
    flagged = {line for _, line in _lines(findings, "F202")}
    assert 17 not in flagged     # work_locked: guarded by _RESULTS_LOCK
    assert 23 not in flagged     # not_a_worker: outside the worker cone


def test_f202_process_spawn_counts_as_worker_root():
    """``Process(target=fn)`` makes ``fn`` worker-executed too."""
    findings = _f202(PROC_SOURCES)
    assert _lines(findings, "F202") == [("repro/flowfix/proc.py", 9)]


def test_source_tree_worker_race_is_found():
    """The real tree with its ``_SHARED_SEGMENTS_LOCK`` guard removed:
    worker-root discovery through ``_coordinator`` / ``_child_main``
    must still reach ``_share_features`` — one F202, nothing else."""
    sources = {_module_path(path): path.read_text(encoding="utf-8")
               for path in _iter_python_files(SRC)}
    guarded = ("    with _SHARED_SEGMENTS_LOCK:\n"
               "        _LIVE_SHARED_SEGMENTS.append((shm, view))\n")
    backends = "repro/distributed/backends.py"
    assert sources[backends].count(guarded) == 1
    sources[backends] = sources[backends].replace(
        guarded, "    _LIVE_SHARED_SEGMENTS.append((shm, view))\n")
    findings = LintEngine().check_sources(sources)
    assert [(f.rule_id, f.path) for f in findings] == [("F202", backends)]
    assert "'_LIVE_SHARED_SEGMENTS'" in findings[0].message


# ----------------------------------------------------------------------
# Cross-cutting behavior
# ----------------------------------------------------------------------


def test_deep_findings_honor_statement_suppressions():
    """``# lint: disable=F202`` on the writing statement silences it."""
    sources = dict(F202_SOURCES)
    sources["repro/flowfix/shared.py"] = sources[
        "repro/flowfix/shared.py"].replace(
            "    RESULTS.append(item)\n    return item\n\n\ndef work_locked",
            "    RESULTS.append(item)  # lint: disable=F202\n"
            "    return item\n\n\ndef work_locked", 1)
    assert _lines(_f202(sources), "F202") == []


def test_deep_output_is_deterministic_and_order_independent():
    """Same project, any modpath insertion order → identical findings."""
    merged = {**F202_SOURCES, **PROC_SOURCES,
              "repro/flowfix/loose.py": "import random\nX = []\n"}
    forward = LintEngine().check_sources(merged)
    backward = LintEngine().check_sources(
        dict(reversed(list(merged.items()))))
    assert forward == backward
    assert {f.rule_id for f in forward} == {"F202", "R103"}
    keys = [(f.path, f.line, f.col, f.rule_id, f.message) for f in forward]
    assert keys == sorted(keys)
    assert len(keys) == len(set(keys))


def test_unknown_deep_analysis_id_raises():
    """Selecting an unknown F-id is a hard error, not silence."""
    with pytest.raises(KeyError):
        LintEngine().select(["F999"])
