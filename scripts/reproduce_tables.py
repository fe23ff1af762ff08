#!/usr/bin/env python3
"""Run the six published-table configurations and print convergence tables.

Each study solves the Poisson model problem with exact solution
u = 16 (x - x^6)(y - y^2) on uniform square grids, level L meaning a
2^(L-1) x 2^(L-1) mesh, and reports L2 / broken-H1 errors and observed
orders.  Pass --csv-dir to also write one CSV per configuration.
"""

import argparse
import pathlib
import sys

from qncfem.cli import StudyConfig, StudyError, emit, format_table, run_study

CONFIGS = [
    ("er3", "enriched odd family, m=3", StudyConfig(
        family="er", m=3, levels=8, min_level=2)),
    ("rplus4", "even family, m=4", StudyConfig(
        family="rplus", m=4, levels=7, min_level=2)),
    ("r5t", "odd family (tilde), m=5", StudyConfig(
        family="r", variant="tilde", m=5, levels=6, min_level=2)),
    ("er5", "enriched odd family, m=5", StudyConfig(
        family="er", m=5, levels=6, min_level=2)),
    ("rplus6", "even family, m=6", StudyConfig(
        family="rplus", m=6, levels=6, min_level=2)),
    ("r7t", "odd family (tilde), m=7", StudyConfig(
        family="r", variant="tilde", m=7, levels=4, min_level=2,
        max_iter_factor=400.0)),
]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--csv-dir", default=None,
                    help="directory for per-table CSV output")
    ap.add_argument("--only", default=None, choices=[k for k, _, _ in CONFIGS],
                    help="run a single configuration")
    args = ap.parse_args(argv)

    csv_dir = pathlib.Path(args.csv_dir) if args.csv_dir else None
    if csv_dir:
        csv_dir.mkdir(parents=True, exist_ok=True)

    rc = 0
    for key, label, config in CONFIGS:
        if args.only and key != args.only:
            continue
        print(f"== {label} ==")
        try:
            rows = run_study(config)
        except StudyError as err:
            print(f"error: {err}", file=sys.stderr)
            if err.rows:
                print(format_table(err.rows))
            rc = 1
            continue
        print(format_table(rows))
        print()
        if csv_dir:
            emit(rows, "csv", csv_dir / f"{key}.csv")
    return rc


if __name__ == "__main__":
    sys.exit(main())
