#!/usr/bin/env python
"""Record the numeric environment and run the serving decoder's canary.

Every digest in this repository is bit-exact, so a run is only
comparable with another when both ran on an environment that rounds
the same way.  This script prints what decides that — Python, NumPy
and SciPy versions, the BLAS NumPy links, the ``*_NUM_THREADS``
variables, the ``multiprocessing`` start methods and the byte order —
and then checks the one property of the BLAS that the forward-only
decoder (``EdgePredictor.decode`` / ``sweep``) relies on: a GEMM
output row's bits do not depend on how many rows the call has or
where the row sits, for two or more rows, at output widths that are
multiples of ``SWEEP_PANEL`` (the decoder zero-pads its hidden widths
up to one).  It checks both dtypes the decoder runs in, float32 (what
an exported artifact serves) and float64, at every panel multiple up
to ``4 * SWEEP_PANEL`` and at the widths 1–4 past each, and prints
every width whose rows move — the evidence ``SWEEP_PANEL`` is derived
from.  Single-row slices are reported too: a one-row GEMM goes down
GEMV and rounds apart, which is why the decoder never runs one.

A second canary guards the gradient all-reduce
(``repro.distributed.sync.average_gradients``): it sums a ``(workers,
P)`` stack of gradient vectors down axis 0 from 0 — float32, as
training runs, and float64 — and is only equal to the per-parameter
mean it replaced if that reduction adds the rows in order, like
Python's ``sum``, signed zeros included.

Two more guard the kernel order of the autodiff engine in float32 and
float64: ``repro.nn.tensor._scatter_add_rows`` (a unit sparse matrix
times the values) must equal ``np.add.at``, and ``aggregate``'s one
CSR product must equal the ``gather`` / ``* weight`` /
``segment_sum`` composition it replaced, forward and backward.  Both
rely on scipy's sparse kernels adding each output row's terms in
stored order from zero.

A third guards the serve planner's cache accounting
(``repro.serve.cache.LRUCache.admit_unique``): a top-k candidate sweep
is admitted in one vectorised pass built on ``argsort``,
``searchsorted`` and ``tril``, whose hits, misses and final recency
order must equal the per-key ``admit`` loop's, at cache capacities
below, equal to and above the sweep length.

A fourth guards the neighbour sampler's edge order
(``repro.sampling.neighbor._by_destination_then_key``): it must equal
``np.lexsort((keys, dst))`` on random edge lists, and on lists where
two keys of one destination are forced one ulp apart so their float
sums ``dst + key`` tie and only the lexsort fallback orders them.

Usage::

    PYTHONPATH=src python scripts/envcheck.py

Exits 0 when every panel multiple holds in both dtypes, the stack sum
equals ``sum``, both kernel orders hold and every sweep admits like
the loop and the sampler's edge order equals ``lexsort``; 1 when any
fails
(a top-k score would no longer equal its pair score, or a training or
serve digest would move).
"""

from __future__ import annotations

import multiprocessing
import os
import platform
import sys

import numpy as np
import scipy

from repro.distributed.sync import average_gradients
from repro.nn.models import SWEEP_CHUNK, SWEEP_PANEL
from repro.nn.tensor import (Tensor, _scatter_add_rows, aggregate, gather,
                             segment_sum)
from repro.sampling.blocks import Block
from repro.sampling.neighbor import _by_destination_then_key
from repro.serve.cache import LRUCache

#: The dtypes the decoder runs in (training runs in float32).
DTYPES = (np.float32, np.float64)
#: GEMM output widths checked: each panel multiple and 1–4 past it.
WIDTHS = tuple(SWEEP_PANEL * k + extra for k in (1, 2, 3, 4)
               for extra in range(5))
#: GEMM input widths: on and off the panel (a table's width is free).
IN_WIDTHS = (SWEEP_PANEL, SWEEP_PANEL + 4, 4 * SWEEP_PANEL)
ROWS = 3 * SWEEP_CHUNK + 5
#: ``(start, stop)`` row slices of two or more rows compared with the
#: whole call: head, offset, chunk-sized, tail, almost everything.
SLICES = ((0, 2), (1, 3), (7, SWEEP_CHUNK + 7), (SWEEP_CHUNK, 2 * SWEEP_CHUNK),
          (ROWS - 2, ROWS), (0, ROWS - 1))


def blas_vendor() -> str:
    """The BLAS NumPy was built against, as its build config names it."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()


def moving_widths(dtype, slices, rng: np.random.Generator) -> list:
    """Output widths at which some row slice of a GEMM rounds
    differently from the same rows of one call over all the rows."""
    moved = set()
    for d_in in IN_WIDTHS:
        x = rng.standard_normal((ROWS, d_in)).astype(dtype)
        for d_out in WIDTHS:
            w = rng.standard_normal((d_in, d_out)).astype(dtype)
            whole = x @ w
            for start, stop in slices:
                part = np.empty((stop - start, d_out), dtype)
                np.matmul(x[start:stop], w, out=part)
                if part.tobytes() != whole[start:stop].tobytes():
                    moved.add(d_out)
    return sorted(moved)


def stack_sum_moves(dtype, rng: np.random.Generator,
                    draws: int = 200) -> int:
    """How many seeded ``(workers, P)`` stacks in ``dtype``, a fifth of
    their entries ``-0.0`` and a tenth ``0.0``, have a gradient mean
    whose bits differ from Python's ``sum`` over the rows divided by
    the row count."""
    moved = 0
    for _ in range(draws):
        workers = int(rng.integers(1, 9))
        size = int(rng.integers(1, 4096))
        stack = (rng.standard_normal((workers, size)) * 10.0 ** rng.integers(
            -3, 4, (workers, 1))).astype(dtype)
        stack[rng.random(stack.shape) < 0.2] = -0.0
        stack[rng.random(stack.shape) < 0.1] = 0.0
        present = np.ones(1, dtype=bool)
        mean, _ = average_gradients([(row, present) for row in stack])
        if mean.tobytes() != (sum(list(stack)) / workers).tobytes():
            moved += 1
    return moved


def _signed_draw(rng: np.random.Generator, shape, dtype) -> np.ndarray:
    """Normal draws in ``dtype`` over six decades, a fifth ``-0.0``."""
    values = (rng.standard_normal(shape)
              * 10.0 ** rng.integers(-3, 4, shape)).astype(dtype)
    values[rng.random(shape) < 0.2] = -0.0
    return values


def scatter_moves(dtype, rng: np.random.Generator, draws: int = 100) -> int:
    """How many seeded scatter-adds (1-D and 2-D values, repeated row
    ids) ``_scatter_add_rows`` rounds apart from ``np.add.at``."""
    moved = 0
    for _ in range(draws):
        rows = int(rng.integers(1, 300))
        count = int(rng.integers(0, 2000))
        index = rng.integers(0, rows, count)
        shape = (count,) if rng.random() < 0.3 else (
            count, int(rng.integers(1, 40)))
        values = _signed_draw(rng, shape, dtype)
        expected = np.zeros((rows,) + shape[1:], dtype)
        np.add.at(expected, index, values)
        got = _scatter_add_rows(index, values, rows)
        moved += (got.dtype != expected.dtype
                  or got.tobytes() != expected.tobytes())
    return moved


def aggregate_moves(dtype, rng: np.random.Generator, draws: int = 60) -> int:
    """How many seeded blocks (unsorted edges, weighted, with and
    without a row scale) give ``aggregate`` a forward or backward whose
    bits differ from the ``gather`` / ``segment_sum`` composition."""
    moved = 0
    for _ in range(draws):
        num_src = int(rng.integers(2, 400))
        num_dst = int(rng.integers(1, num_src + 1))
        edges = int(rng.integers(0, 3000))
        block = Block(np.arange(num_src), num_dst,
                      rng.integers(0, num_src, edges),
                      rng.integers(0, num_dst, edges),
                      rng.uniform(0.1, 3.0, edges))
        scale = rng.uniform(0.1, 2.0, num_dst) if rng.random() < 0.5 \
            else None
        h = _signed_draw(rng, (num_src, int(rng.integers(1, 40))), dtype)
        grad = _signed_draw(rng, (num_dst, h.shape[1]), dtype)
        fused, composed = Tensor(h, requires_grad=True), \
            Tensor(h, requires_grad=True)
        out = aggregate(fused, block, scale)
        out.backward(grad)
        weight = Tensor(block.edge_weight[:, None].astype(dtype))
        ref = segment_sum(gather(composed, block.edge_src) * weight,
                          block.edge_dst, num_dst)
        if scale is not None:
            ref = ref * Tensor(scale[:, None].astype(dtype))
        ref_data = ref.data
        ref.backward(grad)
        moved += (out.data.tobytes() != ref_data.tobytes()
                  or fused.grad.tobytes() != composed.grad.tobytes())
    return moved


def sweep_admission_moves(rng: np.random.Generator, draws: int = 40) -> int:
    """How many seeded draws see ``admit_unique`` part from the per-key
    ``admit`` loop: per draw, three capacities (below, equal to and
    above the sweep length), each four rounds of a short run with
    duplicates then a duplicate-free sweep, sorted or shuffled."""
    moved = 0
    for _ in range(draws):
        universe = int(rng.integers(8, 2000))
        length = int(rng.integers(1, universe))
        for capacity in (int(rng.integers(0, length)), length,
                         length + int(rng.integers(1, 64))):
            vector, loop = LRUCache(capacity), LRUCache(capacity)
            same = True
            for _ in range(4):
                run = rng.integers(0, universe, int(rng.integers(0, 24)))
                vector.admit(run.tolist())
                loop.admit(run.tolist())
                sweep = rng.permutation(universe)[:length]
                if rng.random() < 0.5:
                    sweep.sort()
                got = vector.admit_unique(sweep).tolist()
                same &= (got == loop.admit(sweep.tolist())
                         and vector.counters() == loop.counters()
                         and list(vector._entries) == list(loop._entries))
            moved += not same
    return moved


def sampler_order_moves(rng: np.random.Generator, draws: int = 100) -> tuple:
    """``(moved, ties)``: how many seeded edge lists (non-decreasing
    destinations, as ``sample_block`` builds them)
    ``_by_destination_then_key`` orders apart from ``np.lexsort((keys,
    dst))``, and how many of them had a forced float-sum tie.  Every
    other draw puts a key one ulp above its successor's in the same
    destination group; the successor's key is a multiple of 2**-20, so
    ``dst + key`` is exact and the two sums tie (``dst >= 1``)."""
    moved = ties = 0
    for draw in range(draws):
        counts = rng.integers(0, 12, int(rng.integers(2, 300)))
        dst = np.repeat(np.arange(counts.size, dtype=np.int64), counts)
        keys = rng.random(dst.size)
        pairs = np.flatnonzero((dst[1:] == dst[:-1]) & (dst[1:] > 0))
        if draw % 2 and pairs.size:
            i = int(rng.choice(pairs))
            keys[i + 1] = np.floor(keys[i + 1] * 2**20) / 2**20
            keys[i] = np.nextafter(keys[i + 1], 1.0)
            ties += dst[i] + keys[i] == dst[i + 1] + keys[i + 1]
        got = _by_destination_then_key(dst, keys)
        moved += not np.array_equal(got, np.lexsort((keys, dst)))
    return moved, ties


def main() -> int:
    print(f"python       {platform.python_version()} "
          f"({platform.python_implementation()})")
    print(f"numpy        {np.__version__}")
    print(f"scipy        {scipy.__version__}")
    print(f"blas         {blas_vendor()}")
    threads = {key: value for key, value in sorted(os.environ.items())
               if key.endswith("_NUM_THREADS")}
    print(f"threads      {threads or 'none set'}")
    print(f"start        {multiprocessing.get_all_start_methods()}")
    print(f"byteorder    {sys.byteorder}")
    print(f"canary       GEMM output widths {WIDTHS[0]}-{WIDTHS[-1]} "
          f"(panel {SWEEP_PANEL}), input widths {IN_WIDTHS}")
    failed = False
    for dtype in DTYPES:
        rng = np.random.default_rng(0)
        name = np.dtype(dtype).name
        moved = moving_widths(dtype, SLICES, rng)
        single = moving_widths(dtype, ((0, 1), (5, 6)), rng)
        off_panel = [w for w in moved if w % SWEEP_PANEL]
        on_panel = [w for w in moved if not w % SWEEP_PANEL]
        print(f"  {name:8s} rows of >= 2 move at widths "
              f"{off_panel or 'none'} (off the panel)")
        print(f"  {name:8s} single rows move at widths {single or 'none'}")
        if on_panel:
            failed = True
            print(f"canary FAILED: {name} GEMM rows move with the row "
                  f"count at panel widths {on_panel}")
    kernels = ((1, "(workers, P) gradient mean differs from Python's sum",
                stack_sum_moves, 200),
               (3, "_scatter_add_rows differs from np.add.at", scatter_moves,
                100),
               (5, "aggregate differs from the gather / segment_sum "
                "composition", aggregate_moves, 60))
    for seed, what, check, draws in kernels:
        for dtype in DTYPES:
            moved = check(dtype, np.random.default_rng(seed))
            if moved:
                failed = True
                print(f"canary FAILED: {np.dtype(dtype).name} {what} on "
                      f"{moved} of {draws} draws")
    admission = sweep_admission_moves(np.random.default_rng(2))
    if admission:
        failed = True
        print(f"canary FAILED: a sweep's batch admission differs from the "
              f"per-key LRU loop on {admission} of 120 capacities")
    order_moved, ties = sampler_order_moves(np.random.default_rng(4))
    if order_moved or not ties:
        failed = True
        print(f"canary FAILED: the sampler's edge order differs from "
              f"np.lexsort on {order_moved} of 100 edge lists "
              f"({ties} with a forced float-sum tie)")
    if failed:
        return 1
    print(f"canary ok    GEMM rows position-free at every multiple of "
          f"{SWEEP_PANEL} in {', '.join(np.dtype(d).name for d in DTYPES)}")
    names = ", ".join(np.dtype(d).name for d in DTYPES)
    print(f"canary ok    (workers, P) gradient mean equals Python's sum "
          f"from 0, signed zeros included, on 200 stacks in {names}")
    print(f"canary ok    _scatter_add_rows equals np.add.at on 100 draws, "
          f"aggregate equals its composition on 60 blocks, in {names}")
    print("canary ok    sweep admission equals the per-key LRU loop at "
          "120 capacities below, at and above the sweep length")
    print(f"canary ok    the sampler's edge order equals np.lexsort on 100 "
          f"edge lists, {ties} with a forced float-sum tie")
    return 0


if __name__ == "__main__":
    sys.exit(main())
