#!/usr/bin/env python
"""Record the numeric environment and run the top-k sweep's canary.

Every digest in this repository is bit-exact, so a run is only
comparable with another when both ran on an environment that rounds
the same way.  This script prints what decides that — Python, NumPy
and SciPy versions, the BLAS NumPy links, the ``*_NUM_THREADS``
variables, the ``multiprocessing`` start methods and the byte order —
and then checks the one property of the BLAS that serving's top-k
sweep (``MLPPredictor.sweep``) relies on: a GEMM output row's bits do
not depend on how many rows the call has or where the row sits, for
two or more rows at the hidden widths the sweep chunks
(multiples of ``SWEEP_PANEL``).  Usage::

    PYTHONPATH=src python scripts/envcheck.py

Exits 0 when the canary holds, 1 when it fails (the sweep would then
no longer be byte-equal to the decoder's ``forward``).
"""

from __future__ import annotations

import multiprocessing
import os
import platform
import sys

import numpy as np
import scipy

from repro.nn.models import SWEEP_CHUNK, SWEEP_PANEL

#: Decoder input widths and hidden widths the canary multiplies.
WIDTHS = tuple(SWEEP_PANEL * k for k in (1, 2, 4, 8))


def blas_vendor() -> str:
    """The BLAS NumPy was built against, as its build config names it."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()


def gemm_rows_are_position_free(rng: np.random.Generator) -> list:
    """``(in, out, start, stop)`` of every slice whose GEMM rows differ
    in any bit from the same rows of one call over all the rows."""
    failures = []
    rows = 3 * SWEEP_CHUNK + 5
    for d_in in WIDTHS:
        x = rng.standard_normal((rows, d_in))
        for d_out in WIDTHS:
            w = rng.standard_normal((d_in, d_out))
            whole = x @ w
            for start, stop in ((0, 2), (1, 3), (7, SWEEP_CHUNK + 7),
                                (SWEEP_CHUNK, 2 * SWEEP_CHUNK),
                                (rows - 2, rows), (0, rows - 1)):
                part = np.empty((stop - start, d_out))
                np.matmul(x[start:stop], w, out=part)
                if part.tobytes() != whole[start:stop].tobytes():
                    failures.append((d_in, d_out, start, stop))
    return failures


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
    failures = gemm_rows_are_position_free(np.random.default_rng(0))
    if failures:
        print(f"canary FAILED: {len(failures)} GEMM slice(s) round "
              f"differently from the whole call, first {failures[0]} "
              "(in, out, start, stop)")
        return 1
    print(f"canary ok    GEMM rows position-free at widths {WIDTHS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
