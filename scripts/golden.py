#!/usr/bin/env python
"""Golden ``TrainResult.digest()`` matrix: write it, or check against it.

Usage::

    python scripts/golden.py --check                 # full matrix
    python scripts/golden.py --check --subset        # the tier-1 subset
    python scripts/golden.py --write                 # re-baseline all
    python scripts/golden.py --write --match /elastic   # only these cells

One seeded 300-node ``synthetic_lp_graph`` is trained under every cell
of

    4 frameworks x 3 backends x 5 sync modes
      x {no faults, a 7-event mixed plan x 4 policies,
         worker_failure_prob=0.2 x 4 policies}

(``restore`` with ``ps``/``async`` is rejected by ``TrainConfig`` and
left out) plus one observed serial run per framework x sync mode, 512
cells in all.  The digests are committed in
``tests/golden_train_digests.json``; a refactor proves "behaviour
unchanged" with ``--check``, and an intended change shows up as a
reviewed diff of that file (``--write --match`` re-writes only the
named cells and leaves the rest untouched).

Cell names read ``framework/backend/sync/plan/policy`` with an
``/observed`` suffix for the observed runs.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from pathlib import Path
from typing import Dict, Iterator, List, NamedTuple

import numpy as np

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

GOLDEN_PATH = REPO_ROOT / "tests" / "golden_train_digests.json"

FRAMEWORKS = ("psgd_pa", "llcg", "splpg", "vertex_cut")
BACKENDS = ("serial", "thread", "process")
SYNCS = ("grad", "model", "ps", "async", "local_sgd")
POLICIES = ("drop", "retry", "restore", "elastic")
PLANS = ("mixed", "prob")

WORKERS = 3
EPOCHS = 3
SEED = 5


class Cell(NamedTuple):
    """One training run of the matrix."""

    framework: str
    backend: str
    sync: str
    plan: str       # "none" | "mixed" | "prob"
    policy: str
    observe: bool = False

    @property
    def name(self) -> str:
        """``framework/backend/sync/plan/policy[/observed]``."""
        parts = [self.framework, self.backend, self.sync, self.plan,
                 self.policy]
        if self.observe:
            parts.append("observed")
        return "/".join(parts)


def all_cells() -> Iterator[Cell]:
    """Every cell of the matrix, in a stable order."""
    for fw in FRAMEWORKS:
        for sync in SYNCS:
            for backend in BACKENDS:
                yield Cell(fw, backend, sync, "none", "drop")
                for plan in PLANS:
                    for policy in POLICIES:
                        if policy == "restore" and sync in ("ps", "async"):
                            continue
                        yield Cell(fw, backend, sync, plan, policy)
            yield Cell(fw, "serial", sync, "mixed", "retry", observe=True)


def subset_cells() -> List[Cell]:
    """The tier-1 slice: every backend x sync mode fault-free, and the
    mixed plan under each policy on the serial and process backends."""
    cells = [Cell("splpg", backend, sync, "none", "drop")
             for backend in BACKENDS for sync in SYNCS]
    cells += [Cell("psgd_pa", backend, "model", "mixed", policy)
              for backend in ("serial", "process") for policy in POLICIES]
    return cells


def make_split():
    """The matrix's one seeded workload."""
    from repro.graph import split_edges, synthetic_lp_graph

    rng = np.random.default_rng(SEED)
    graph = synthetic_lp_graph(num_nodes=300, target_edges=1200,
                               feature_dim=16, num_communities=4, rng=rng)
    return split_edges(graph, rng=rng)


def mixed_plan():
    """Seven events over three epochs: both stragglers (one past the
    timeout, so it escalates to a crash), both message faults, a store
    outage, and a crash of worker 0 — the replica the evaluator and the
    correction hook read."""
    from repro.faults import FaultEvent, FaultPlan

    return FaultPlan(name="golden-mixed", events=(
        FaultEvent(kind="straggle", epoch=0, round=1, worker=0,
                   delay_s=0.5),
        FaultEvent(kind="store_outage", epoch=0, round=2, rounds=2),
        FaultEvent(kind="msg_loss", epoch=0, round=3, worker=2),
        FaultEvent(kind="crash", epoch=1, round=0, worker=0),
        FaultEvent(kind="msg_corrupt", epoch=1, round=1, worker=1),
        FaultEvent(kind="straggle", epoch=1, round=3, worker=2,
                   delay_s=60.0),
        FaultEvent(kind="msg_loss", epoch=2, round=0, worker=1),
    ))


def run_cell(split, cell: Cell) -> str:
    """Train one cell and return its digest."""
    from repro.core.frameworks import run_framework
    from repro.distributed import TrainConfig

    faults = {}
    if cell.plan == "mixed":
        faults["fault_plan"] = mixed_plan()
    elif cell.plan == "prob":
        faults["worker_failure_prob"] = 0.2
    # Half the frameworks average models mid-epoch, half only at the
    # epoch end, so both cadences of sync="model" are in the matrix.
    every = 2 if cell.framework in ("splpg", "vertex_cut") else 0
    config = TrainConfig(
        hidden_dim=16, num_layers=2, fanouts=(5, 5), epochs=EPOCHS,
        batch_size=64, seed=SEED, sync=cell.sync, sync_every=2,
        sync_every_batches=every, backend=cell.backend,
        observe=cell.observe, recovery=cell.policy, fault_timeout_s=15.0,
        retry_backoff_s=0.05, **faults)
    result = run_framework(cell.framework, split, WORKERS, config,
                           rng=np.random.default_rng(SEED))
    return result.digest()


def compute(cells, verbose: bool = False) -> Dict[str, str]:
    """Digest of every given cell, keyed by cell name."""
    split = make_split()
    out: Dict[str, str] = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for cell in cells:
            out[cell.name] = run_cell(split, cell)
            if verbose:
                print(f"{out[cell.name][:12]}  {cell.name}", flush=True)
    return out


def load_golden(path: Path = GOLDEN_PATH) -> Dict[str, str]:
    """The committed digests."""
    return json.loads(path.read_text())["digests"]


def diff(golden: Dict[str, str], got: Dict[str, str]) -> List[str]:
    """One line per cell whose digest is missing or differs."""
    problems = []
    for name, digest in got.items():
        want = golden.get(name)
        if want is None:
            problems.append(f"{name}: not in the golden file")
        elif want != digest:
            problems.append(f"{name}: {digest[:12]} != golden {want[:12]}")
    return problems


def main(argv=None) -> int:
    """CLI entry point; exit 1 when a checked digest differs."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true")
    mode.add_argument("--check", action="store_true")
    parser.add_argument("--subset", action="store_true",
                        help="only the tier-1 subset of cells")
    parser.add_argument("--match", default="",
                        help="only cells whose name contains this text")
    parser.add_argument("--file", type=Path, default=GOLDEN_PATH)
    parser.add_argument("-v", "--verbose", action="store_true")
    args = parser.parse_args(argv)

    cells = subset_cells() if args.subset else list(all_cells())
    cells = [c for c in cells if args.match in c.name]
    got = compute(cells, verbose=args.verbose)
    if args.write:
        digests = load_golden(args.file) if args.file.exists() else {}
        changed = sorted(n for n, d in got.items() if digests.get(n) != d)
        digests.update(got)
        doc = {"workload": {"nodes": 300, "workers": WORKERS,
                            "epochs": EPOCHS, "seed": SEED},
               "digests": dict(sorted(digests.items()))}
        args.file.write_text(json.dumps(doc, indent=1) + "\n")
        print(f"wrote {len(got)} cell(s), {len(changed)} changed")
        for name in changed:
            print(f"  {name}")
        return 0
    problems = diff(load_golden(args.file), got)
    for line in problems:
        print(f"GOLDEN MISMATCH: {line}", file=sys.stderr)
    print(f"checked {len(got)} cell(s): "
          f"{'ok' if not problems else f'{len(problems)} differ'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
