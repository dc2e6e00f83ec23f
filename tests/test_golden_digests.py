"""Committed golden digests (scripts/golden.py).

Tier-1 recomputes a small slice of the training matrix — every backend
x sync mode fault-free, the mixed fault plan under each recovery policy
on the serial and process backends and under the lossless policies on
``vertex_cut``, one staleness-frontier cell, one partitioner cell and
the ``centralized`` cell;
every faulted cell also passes the fault-tolerance invariants against
its fault-free twin — plus the crash-and-resume and coordinator-kill
cells (which have no digest of their own: each must equal its
uninterrupted twin's committed one), and checks the committed file's
own cross-backend invariants;
``scripts/ci.sh`` checks every cell ``golden.all_cells()`` names.  The
stream cells (three shard layouts x steady/churn, steady on every
backend, an outage and a rollback regime, a resumed cell) and the serve
cells (seven request / fault / cache / decoder regimes on every
backend) are cheap enough to recompute in full.
"""

import dataclasses
import sys
from collections import defaultdict
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
try:
    import golden
finally:
    sys.path.pop(0)


@pytest.fixture(scope="module")
def committed():
    return golden.load_golden()


def test_matrix_is_fully_committed(committed):
    assert set(committed) == {cell.name for cell in golden.all_cells()}


def test_subset_matches_committed_digests(committed):
    got = golden.compute(golden.subset_cells())
    assert golden.diff(committed, got) == []


def test_resumed_cells_equal_their_uninterrupted_twins(committed):
    """Every framework x {grad, model, ps} on serial and
    ``llcg/process/grad``: crashed at a round hook, resumed from the
    checkpoint directory, held to the digest already committed for the
    run that was never interrupted."""
    cells = golden.resume_cells()
    assert len(cells) == 13
    assert {"llcg/serial/grad/none/drop/resume",
            "llcg/serial/model/none/drop/resume",
            "llcg/serial/ps/none/drop/resume",
            "llcg/process/grad/none/drop/resume"} <= {c.name for c in cells}
    assert not {c.name for c in cells} & set(committed)
    got = golden.compute(cells)
    assert golden.diff(golden.with_resume_twins(committed), got) == []


def test_killed_coordinators_resume_to_their_uninterrupted_twins(
        committed):
    """A forked coordinator SIGKILLs its own process group (workers
    included) at a round hook and must exit by that signal; a second
    fork resumes from the durable checkpoint, and its digest is held to
    the committed uninterrupted one: every backend and sync mode, and
    ``llcg``'s correction RNG and optimizer."""
    cells = golden.kill_cells()
    assert {c.backend for c in cells} == set(golden.BACKENDS)
    assert {"grad", "ps", "async", "local_sgd", "model"} == {
        c.sync for c in cells}
    assert "llcg" in {c.framework for c in cells}
    assert not {c.name for c in cells} & set(committed)
    got = golden.compute(cells)
    assert golden.diff(golden.with_resume_twins(committed), got) == []


def test_fault_invariants_hold_the_restore_ledger_to_the_twin():
    """The check every faulted cell passes raises when a ``restore`` run
    charges other bytes than its fault-free twin."""
    split = golden.make_split()
    cell = golden.Cell("psgd_pa", "serial", "model", "mixed", "restore")
    result = golden.train_cell(split, cell)
    twin = golden.train_cell(split, cell._replace(plan="none"))
    golden.check_faulted(cell, result, twin, wall_s=0.0)
    drifted = dataclasses.replace(twin, comm_total=dataclasses.replace(
        twin.comm_total, sync_bytes=twin.comm_total.sync_bytes + 1))
    with pytest.raises(AssertionError, match="comm_total .* under 'restore'"):
        golden.check_faulted(cell, result, drifted, wall_s=0.0)


def test_kill_cell_fails_when_the_kill_never_lands(monkeypatch):
    """A victim that trains to the end is reported, not resumed."""
    monkeypatch.setattr(golden, "RESUME_CRASH_AT", (golden.EPOCHS, 0))
    cell = golden.kill_cells()[0]
    with pytest.raises(AssertionError, match="never landed"):
        golden.run_cell(golden.make_split(), cell)


def _backend_free(plan: str, policy: str) -> bool:
    return plan == "none" or policy in ("elastic", "restore")


def test_fault_free_and_elastic_cells_do_not_depend_on_the_backend(
        committed):
    """No faults (the staleness-frontier and partitioner cells
    included), faults survived by removing workers, or faults survived
    by ``restore`` (one restore point + command log + replay mechanism,
    run through the same worker executor on every backend): the backend
    is an engine choice, so each such group has exactly one digest.
    (drop/retry respawn real processes *warm* on the process backend —
    a fresh RNG stream, and respawns in the digested fault ledger — so
    those groups legitimately differ.)"""
    groups = defaultdict(set)
    for name, digest in committed.items():
        framework, _backend, sync, plan, policy = name.split("/")[:5]
        if _backend_free(plan, policy):
            groups[framework, sync, plan, policy].add(digest)
    assert set(groups) == {
        (c.framework, c.sync, c.plan, c.policy) for c in golden.all_cells()
        if _backend_free(c.plan, c.policy)}
    assert {g[:2] for g in groups} >= set(golden.FRONTIER)
    assert [g for g, digests in groups.items() if len(digests) != 1] == []


def test_observation_does_not_change_the_digest(committed):
    observed = [n for n in committed if n.endswith("/observed")]
    assert len(observed) == sum(c.observe for c in golden.all_cells())
    for name in observed:
        assert committed[name] == committed[name[:-len("/observed")]]


@pytest.fixture(scope="module")
def committed_stream():
    return golden.load_stream_golden()


def test_stream_cells_match_committed_digests(committed_stream):
    cells = golden.stream_cells()
    assert set(committed_stream) == {cell.name for cell in cells}
    got = golden.compute_stream(cells)
    assert golden.diff(committed_stream, got) == []


def test_stream_backend_and_resume_do_not_change_the_cell(committed_stream):
    """Thread, process and resumed cells equal their serial twin, the
    outage regime included."""
    for name, value in committed_stream.items():
        layout, regime = name.split("/")[1:3]
        assert value == committed_stream[f"stream/{layout}/{regime}/serial"]


@pytest.fixture(scope="module")
def committed_serve():
    return golden.load_serve_golden()


def test_serve_cells_match_committed_digests(committed_serve):
    cells = golden.serve_cells()
    assert set(committed_serve) == {cell.name for cell in cells}
    got = golden.compute_serve(cells)
    assert golden.diff(committed_serve, got) == []


def test_serve_backend_does_not_change_the_cell(committed_serve):
    """Every serve regime and score mode has one value across serial,
    thread and process."""
    for name, value in committed_serve.items():
        group = name.rsplit("/", 1)[0]
        assert value == committed_serve[f"{group}/serial"]
