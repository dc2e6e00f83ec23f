"""Kill-driver chaos: SIGKILL the *coordinator* and resume, bit for bit.

The fault layer tolerates worker failures; this harness attacks the
other side of the contract — the coordinator process itself.  For each
``(framework, backend, sync)`` cell it:

1. computes the uninterrupted run's
   :meth:`~repro.distributed.trainer.TrainResult.digest` in-process
   (the ground truth — no checkpointing involved);
2. forks a *coordinator* subprocess that trains the same workload with
   durable checkpointing enabled and a round hook that delivers a real
   ``SIGKILL`` to itself at a seeded ``(epoch, round)`` — mid-epoch,
   after at least one checkpoint has been committed;
3. asserts the subprocess actually died by signal (exitcode ``-9``);
4. forks a second coordinator on the same checkpoint directory, which
   finds the durable manifest, rebuilds the trainer via
   :func:`repro.checkpoint.rebuild_trainer` and trains to completion;
5. asserts the resumed run's digest equals the uninterrupted one.

Because the uninterrupted baseline is computed once per framework and
sync mode (on the first backend swept), step 5 simultaneously gates
crash-resume bit-identity *and* cross-backend bit-identity.

CLI: ``python -m repro.faults chaos --kill-driver [--smoke]``.
"""

from __future__ import annotations

import json
import multiprocessing as mp
import os
import signal
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Wall-clock budget for each coordinator subprocess (seconds).
KILL_TIMEOUT_S = 240.0


@dataclass
class KillOutcome:
    """What one kill/resume cell did, and what (if anything) broke."""

    framework: str
    backend: str
    sync: str
    ok: bool
    violations: List[str] = field(default_factory=list)
    kill_at: Optional[Tuple[int, int]] = None
    resumed_from: Optional[int] = None
    wall_s: float = 0.0

    def describe(self) -> str:
        """One status line (plus any violations, indented)."""
        status = "ok  " if self.ok else "FAIL"
        where = (f"kill@{self.kill_at[0]}.{self.kill_at[1]}"
                 if self.kill_at else "kill@?")
        line = (f"[{status}] {self.framework:8s} {self.backend:8s} "
                f"{self.sync:9s} {where} "
                f"resumed_from={self.resumed_from} {self.wall_s:5.1f}s")
        for v in self.violations:
            line += f"\n       - {v}"
        return line


class KillDriverError(AssertionError):
    """At least one kill/resume cell broke the bit-identity contract."""

    def __init__(self, failed: List[KillOutcome]) -> None:
        self.failed = failed
        lines = [f"{len(failed)} kill-driver cell(s) failed:"]
        for o in failed:
            lines.append(o.describe())
        super().__init__("\n".join(lines))


def _result_path(out_dir: str) -> str:
    """Where a completed coordinator records its digest."""
    return os.path.join(out_dir, "RESULT.json")


def _coordinator(out_dir: str, framework: str, backend: str, sync: str,
                 kill_at: Optional[Tuple[int, int]], seed: int,
                 epochs: int, workers: int) -> None:
    """One coordinator incarnation (runs in a forked subprocess).

    Fresh start when ``out_dir`` holds no checkpoint yet; otherwise a
    resume from its newest durable snapshot.  ``kill_at`` arms a round
    hook that SIGKILLs this very process at that exact ``(epoch,
    round)`` — a real, unhandleable death, not an exception.  A run
    that completes writes ``RESULT.json`` (digest + where it resumed
    from) atomically.
    """
    from ..checkpoint import (CheckpointNotFoundError, load_checkpoint,
                              rebuild_trainer)
    from ..checkpoint.io import atomic_write_json
    from ..core.frameworks import FRAMEWORKS, build_trainer
    from ..distributed import trainer as trainer_mod
    from ..distributed.trainer import TrainConfig
    from .chaos import _make_workload

    # Own process group: the kill below takes out this coordinator AND
    # any worker children it forked (process backend) in one shot, so
    # no orphans linger holding inherited pipe/sentinel fds.
    try:
        os.setpgid(0, 0)
    except OSError:
        pass
    split = _make_workload(seed)
    resumed_from: Optional[int] = None
    try:
        meta, state = load_checkpoint(out_dir)
    except CheckpointNotFoundError:
        config = TrainConfig(hidden_dim=16, num_layers=2, fanouts=(5, 5),
                             batch_size=64, epochs=epochs, seed=seed,
                             sync=sync, backend=backend,
                             checkpoint_dir=out_dir, checkpoint_every=1)
        trainer = build_trainer(FRAMEWORKS[framework], split, workers,
                                config, rng=np.random.default_rng(seed))
    else:
        resumed_from = int(meta["epoch"])
        trainer = rebuild_trainer(meta, state, split)

    if kill_at is not None:
        kill_epoch, kill_round = kill_at

        def _hook(_trainer, epoch: int, rnd: int) -> None:
            """Deliver the planned coordinator death."""
            if epoch == kill_epoch and rnd == kill_round:
                os.killpg(os.getpgrp(), signal.SIGKILL)

        trainer_mod.set_round_hook(_hook)
    try:
        result = trainer.train()
    finally:
        trainer_mod.set_round_hook(None)
    atomic_write_json(_result_path(out_dir), {
        "digest": result.digest(),
        "resumed_from_epoch": resumed_from,
        "epochs": len(result.history),
    })


def _wait(proc: mp.Process, what: str,
          violations: List[str]) -> Optional[int]:
    """Reap a coordinator within the wall-clock budget.

    Polls ``is_alive`` (``waitpid(WNOHANG)``) instead of ``join``:
    the coordinator's own forked workers inherit its join sentinel,
    so a sentinel wait would block until *they* exit too.
    """
    deadline = time.monotonic() + KILL_TIMEOUT_S
    while time.monotonic() < deadline:
        if not proc.is_alive():
            return proc.exitcode
        time.sleep(0.02)
    proc.terminate()
    proc.join(10)
    violations.append(
        f"{what} coordinator exceeded the {KILL_TIMEOUT_S:.0f}s "
        "budget and was terminated")
    return None


def run_kill_driver(
    *,
    smoke: bool = False,
    backends: Sequence[str] = ("serial", "thread", "process"),
    syncs: Sequence[str] = ("barrier", "ps", "async", "local_sgd"),
    frameworks: Sequence[str] = ("splpg", "llcg"),
    workers: int = 2,
    epochs: int = 3,
    seed: int = 29,
    verbose: bool = True,
) -> List[KillOutcome]:
    """Sweep kill/resume cells and gate resume + cross-backend digests.

    ``smoke`` pairs the frameworks and backends with the sync modes
    round-robin (4 cells, every sync mode, backend and framework — so
    ``llcg``'s stateful correction — represented); the full sweep runs
    the whole ``frameworks x backends x syncs`` product.  Raises
    :class:`KillDriverError` if any cell's resumed digest differs from
    the uninterrupted baseline, the kill did not land, or a
    coordinator failed.
    """
    from ..core.frameworks import FRAMEWORKS, build_trainer
    from ..distributed.trainer import TrainConfig
    from .chaos import _make_workload

    if epochs < 2:
        raise ValueError("kill-driver needs epochs >= 2 (the seeded "
                         "kill lands in epoch 1)")
    split = _make_workload(seed)
    if smoke:
        cells = [(frameworks[i % len(frameworks)],
                  backends[i % len(backends)], sync)
                 for i, sync in enumerate(syncs)]
    else:
        cells = [(f, b, s) for f in frameworks for b in backends
                 for s in syncs]

    ctx = mp.get_context("fork")
    point_rng = np.random.default_rng(seed)
    baselines: Dict[Tuple[str, str], str] = {}
    outcomes: List[KillOutcome] = []
    for framework, backend, sync in cells:
        started = time.perf_counter()
        violations: List[str] = []
        if (framework, sync) not in baselines:
            # Computed once per framework and sync mode: backends are
            # bit-identical by contract, so every backend's resumed digest
            # is held to this one value (cross-backend + resume gate).
            config = TrainConfig(
                hidden_dim=16, num_layers=2, fanouts=(5, 5),
                batch_size=64, epochs=epochs, seed=seed, sync=sync,
                backend=backend)
            baselines[framework, sync] = build_trainer(
                FRAMEWORKS[framework], split, workers, config,
                rng=np.random.default_rng(seed)).train().digest()
        baseline = baselines[framework, sync]
        # Epoch 1 guarantees epoch 0's checkpoint is already durable,
        # so the resume is a genuine mid-run continuation; the round
        # within it is seeded.
        kill_at = (1, int(point_rng.integers(0, 2)))

        with tempfile.TemporaryDirectory(prefix="repro-killdrv-") as tmp:
            victim = ctx.Process(
                target=_coordinator,
                args=(tmp, framework, backend, sync, kill_at, seed,
                      epochs, workers))
            victim.start()
            exitcode = _wait(victim, "victim", violations)
            if exitcode is not None and exitcode != -signal.SIGKILL:
                violations.append(
                    f"victim coordinator exited with {exitcode}, "
                    f"expected death by SIGKILL ({-signal.SIGKILL})")
            if os.path.exists(_result_path(tmp)):
                violations.append(
                    "victim coordinator completed and wrote RESULT.json"
                    " — the kill never landed")

            resumed_from = None
            if not violations:
                resumer = ctx.Process(
                    target=_coordinator,
                    args=(tmp, framework, backend, sync, None, seed,
                          epochs, workers))
                resumer.start()
                exitcode = _wait(resumer, "resume", violations)
                if exitcode != 0:
                    violations.append(
                        f"resume coordinator exited with {exitcode}")
                elif not os.path.exists(_result_path(tmp)):
                    violations.append(
                        "resume coordinator wrote no RESULT.json")
                else:
                    with open(_result_path(tmp), "r",
                              encoding="utf-8") as fh:
                        doc = json.load(fh)
                    resumed_from = doc["resumed_from_epoch"]
                    if resumed_from is None:
                        violations.append(
                            "resume coordinator started fresh instead "
                            "of loading the durable checkpoint")
                    if doc["digest"] != baseline:
                        violations.append(
                            f"resumed digest {doc['digest'][:16]}… != "
                            f"uninterrupted {baseline[:16]}… "
                            "(bit-identity broken)")

        outcome = KillOutcome(
            framework=framework, backend=backend, sync=sync,
            ok=not violations, violations=violations, kill_at=kill_at,
            resumed_from=resumed_from,
            wall_s=time.perf_counter() - started)
        outcomes.append(outcome)
        if verbose:
            print(outcome.describe())

    failed = [o for o in outcomes if not o.ok]
    if verbose:
        print(f"\nkill-driver: {len(outcomes) - len(failed)}"
              f"/{len(outcomes)} cells ok"
              f"{' [smoke]' if smoke else ''}")
    if failed:
        raise KillDriverError(failed)
    return outcomes
