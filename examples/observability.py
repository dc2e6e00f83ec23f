#!/usr/bin/env python
"""Observe a distributed training run: trace, metrics, Chrome export.

Runs a 2-worker SpLPG job with ``TrainConfig(observe=True)``, then
uses the attached :class:`~repro.obs.RunReport` to:

* verify that the report's byte totals match the communication
  ledger exactly (the byte-exact mirroring contract);
* print the top-3 spans by modeled self-time — where the simulated
  clock went;
* export a Chrome-trace JSON that drops straight into
  https://ui.perfetto.dev (one row per worker).

Everything is deterministic: rerun the script and the trace is
bit-identical.  See docs/observability.md for the conventions.

Run:  python examples/observability.py
"""

import numpy as np

from repro import TrainConfig, split_edges
from repro.core import run_framework
from repro.graph import synthetic_lp_graph


def main() -> None:
    rng = np.random.default_rng(11)
    graph = synthetic_lp_graph(num_nodes=500, target_edges=2200,
                               feature_dim=32, num_communities=8,
                               rng=rng)
    split = split_edges(graph, rng=rng)
    config = TrainConfig(epochs=3, batch_size=128, observe=True, seed=11)

    print("Training SpLPG on 2 workers with observe=True ...")
    result = run_framework("splpg", split, num_parts=2, config=config,
                           rng=np.random.default_rng(11))
    report = result.report

    print("\n== run summary ==")
    print(report.summary())

    ledger = result.comm_total
    assert report.comm["feature_bytes"] == ledger.feature_bytes
    assert report.comm["structure_bytes"] == ledger.structure_bytes
    assert report.comm["sync_bytes"] == ledger.sync_bytes
    print("byte-exact: RunReport totals == CommRecord ledger")

    print("\n== top-3 spans by modeled self-time ==")
    for name, count, secs in report.top_spans(3):
        print(f"  {name:<12} x{count:<5} {secs:.6f} s")

    report.save("observability_run.json")
    report.export_chrome_trace("observability_run.trace.json")
    print("\nwrote observability_run.json (the full artifact)")
    print("wrote observability_run.trace.json — open it at "
          "https://ui.perfetto.dev")
    print("CLI equivalents:")
    print("  python -m repro.obs summarize observability_run.json")
    print("  python -m repro.obs export observability_run.json")


if __name__ == "__main__":
    main()
