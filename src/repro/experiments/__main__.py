"""Command-line entry point: regenerate any paper experiment.

Usage:
    python -m repro.experiments list
    python -m repro.experiments fig9 --datasets cora pubmed --p 4 8
    python -m repro.experiments table3 --alphas 0.05 0.10 0.15 --p 4
    python -m repro.experiments fig14 --scale smoke
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List

from ..api import _SCALE_PRESETS, _scale_preset
from . import (
    format_rows,
    run_fig3,
    run_fig4,
    run_fig6,
    run_fig8,
    run_fig9,
    run_fig10,
    run_fig11,
    run_fig12,
    run_fig13,
    run_fig14,
    run_table2,
    run_table3,
)

_EXPERIMENTS: Dict[str, dict] = {
    "fig3": {
        "run": lambda a, s: run_fig3(datasets=a.datasets or ("cora", "citeseer"),
                                     p_values=a.p or (4,), scale=s),
        "columns": ["dataset", "p", "framework", "hits", "auc"],
        "help": "accuracy drop of SOTA distributed methods",
    },
    "fig4": {
        "run": lambda a, s: run_fig4(datasets=a.datasets or ("cora",),
                                     p_values=a.p or (4,), scale=s),
        "columns": ["dataset", "p", "framework", "hits",
                    "comm_gb_per_epoch"],
        "help": "complete data-sharing: accuracy vs communication",
    },
    "fig6": {
        "run": lambda a, s: run_fig6(datasets=a.datasets or ("cora", "pubmed"),
                                     scale=s),
        "columns": ["dataset", "variant", "hits", "edges_retained"],
        "help": "naive sparsify-then-train failure",
    },
    "table2": {
        "run": lambda a, s: run_table2(
            datasets=a.datasets or ("citeseer", "cora", "pubmed"),
            p_values=a.p or (4, 8, 16), scale=s),
        "columns": None,  # dynamic columns per p
        "help": "sparsifier running time",
    },
    "fig8": {
        "run": lambda a, s: run_fig8(datasets=a.datasets or ("pubmed",),
                                     p_values=a.p or (4, 8), scale=s),
        "columns": ["dataset", "gnn", "p", "baseline", "splpg_gb",
                    "baseline_gb", "saving"],
        "help": "comm saving of SpLPG vs '+' baselines",
    },
    "fig9": {
        "run": lambda a, s: run_fig9(
            datasets=a.datasets or ("cora", "citeseer", "pubmed"),
            p_values=a.p or (4, 8), scale=s),
        "columns": ["dataset", "p", "splpg_gb", "splpg_plus_gb", "saving"],
        "help": "comm saving of SpLPG over SpLPG+",
    },
    "fig10": {
        "run": lambda a, s: run_fig10(datasets=a.datasets or ("cora",),
                                      p_values=a.p or (4,), scale=s),
        "columns": ["dataset", "gnn", "p", "baseline", "splpg_hits",
                    "baseline_hits", "improvement"],
        "help": "accuracy improvement of SpLPG over vanilla baselines",
    },
    "fig11": {
        "run": lambda a, s: run_fig11(
            datasets=a.datasets or ("cora", "citeseer"),
            p_values=a.p or (4,), scale=s),
        "columns": ["dataset", "gnn", "p", "centralized_hits",
                    "splpg_hits", "gap"],
        "help": "absolute accuracy of SpLPG vs centralized",
    },
    "fig12": {
        "run": lambda a, s: run_fig12(
            datasets=a.datasets or ("cora", "citeseer"),
            p=(a.p or [4])[0], scale=s),
        "columns": ["dataset", "variant", "hits", "auc"],
        "help": "ablation: SpLPG-- / SpLPG- / SpLPG / SpLPG+",
    },
    "fig13": {
        "run": lambda a, s: run_fig13(
            dataset=(a.datasets or ["cora"])[0],
            batch_sizes=tuple(a.batch_sizes or (32, 64, 128, 256)),
            p=(a.p or [4])[0], scale=s),
        "columns": ["dataset", "batch_size", "comm_gb_per_epoch", "hits"],
        "help": "impact of batch size",
    },
    "table3": {
        "run": lambda a, s: run_table3(
            dataset=(a.datasets or ["cora"])[0],
            alphas=tuple(a.alphas or (0.05, 0.10, 0.15, 0.20)),
            p_values=a.p or (4,), scale=s),
        "columns": ["alpha", "p", "comm_saving", "hits"],
        "help": "impact of sparsification level",
    },
    "fig14": {
        "run": lambda a, s: run_fig14(datasets=a.datasets or ("cora",),
                                      p=(a.p or [4])[0], scale=s),
        "columns": ["dataset", "gnn", "framework", "hits"],
        "help": "robustness across GNN architectures",
    },
}


def main(argv: List[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate a table/figure of the SpLPG paper.")
    parser.add_argument("experiment",
                        help="experiment id (e.g. fig9, table3) or 'list'")
    parser.add_argument("--datasets", nargs="+", default=None)
    parser.add_argument("--p", nargs="+", type=int, default=None,
                        help="partition counts")
    parser.add_argument("--alphas", nargs="+", type=float, default=None)
    parser.add_argument("--batch-sizes", nargs="+", type=int, default=None,
                        dest="batch_sizes")
    parser.add_argument("--scale", choices=_SCALE_PRESETS, default="quick")
    parser.add_argument("--json", default=None,
                        help="with 'all': write the full report here")
    parser.add_argument("--extensions", action="store_true",
                        help="with 'all': include extension ablations")
    args = parser.parse_args(argv)

    if args.experiment == "all":
        from .report import run_all, save_report
        report = run_all(scale=_scale_preset(args.scale),
                         include_extensions=args.extensions,
                         progress=lambda name: print(f"running {name}..."))
        if args.json:
            save_report(report, args.json)
            print(f"report written to {args.json}")
        else:
            for name, entry in report.items():
                print(f"{name}: {len(entry['rows'])} rows "
                      f"in {entry['seconds']:.1f}s")
        return 0
    if args.experiment == "list":
        for name, spec in _EXPERIMENTS.items():
            print(f"{name:8s} {spec['help']}")
        return 0
    if args.experiment not in _EXPERIMENTS:
        print(f"unknown experiment {args.experiment!r}; "
              f"try 'list'", file=sys.stderr)
        return 2

    spec = _EXPERIMENTS[args.experiment]
    scale = _scale_preset(args.scale)
    rows = spec["run"](args, scale)
    columns = spec["columns"]
    if columns is None:
        columns = list(rows[0].keys())
    printable = [{k: v for k, v in r.items() if k != "val_curve"}
                 for r in rows]
    print(format_rows(printable, [c for c in columns
                                  if any(c in r for r in printable)]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
