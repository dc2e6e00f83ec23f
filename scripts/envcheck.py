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
Usage::

    PYTHONPATH=src python scripts/envcheck.py

Exits 0 when every panel multiple holds in both dtypes, 1 when one
fails (a top-k score would then no longer equal its pair score).
"""

from __future__ import annotations

import multiprocessing
import os
import platform
import sys

import numpy as np
import scipy

from repro.nn.models import SWEEP_CHUNK, SWEEP_PANEL

#: The dtypes the decoder runs in.
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
    if failed:
        return 1
    print(f"canary ok    GEMM rows position-free at every multiple of "
          f"{SWEEP_PANEL} in {', '.join(np.dtype(d).name for d in DTYPES)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
