"""Committed golden digests (scripts/golden.py).

Tier-1 recomputes a small slice of the training matrix — every backend
x sync mode fault-free, the mixed fault plan under each recovery policy
on the serial and process backends, one staleness-frontier cell and one
partitioner cell — plus the crash-and-resume cells (which have no
digest of their own: each must equal its uninterrupted twin's committed
one), and checks the committed file's own cross-backend invariants;
``scripts/ci.sh`` checks every cell ``golden.all_cells()`` names.  The
stream cells (three shard layouts x steady/churn, steady on every
backend, an outage and a rollback regime, a resumed cell) and the serve
cells (seven request / fault / cache / decoder regimes on every
backend) are cheap enough to recompute in full.
"""

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
    """Every regime has one value across serial, thread and process."""
    for name, value in committed_serve.items():
        regime = name.split("/")[1]
        assert value == committed_serve[f"serve/{regime}/serial"]
