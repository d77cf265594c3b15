"""Regenerate result tables: ``python -m repro.experiments [options] [name ...]``.

With no arguments every experiment runs (all tables/figures plus the
serving and sharding benchmarks) and each formatted table is written to
``benchmarks/results/`` (or ``REPRO_RESULTS_DIR``).  A subset can be
regenerated by naming experiments either positionally or via ``--only``
(``python -m repro.experiments --only serving sharding``); ``--list``
prints the available experiment names and exits.  The paper tables and the
benchmark tests render through the same :class:`~repro.experiments.tables.PaperTable`,
so both write the same files.  Set ``REPRO_SCALE=paper`` for the paper's
model sizes.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from . import ALL_EXPERIMENTS


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's result tables and the serving "
        "benchmarks.",
    )
    parser.add_argument(
        "names",
        nargs="*",
        metavar="name",
        help="experiments to run (default: all)",
    )
    parser.add_argument(
        "--only",
        nargs="+",
        default=None,
        metavar="name",
        help="run only the named experiments (same as naming them "
        "positionally; the two forms combine)",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        dest="list_experiments",
        help="print the available experiment names and exit",
    )
    args = parser.parse_args(list(argv) if argv is not None else None)

    if args.list_experiments:
        for name in sorted(ALL_EXPERIMENTS):
            print(name)
        return 0

    names = list(args.names) + list(args.only or [])
    names = names or sorted(ALL_EXPERIMENTS)
    unknown = [n for n in names if n not in ALL_EXPERIMENTS]
    if unknown:
        print(
            f"unknown experiment(s): {', '.join(unknown)}; "
            f"available: {', '.join(sorted(ALL_EXPERIMENTS))}",
            file=sys.stderr,
        )
        return 2
    for name in names:
        # each experiment's main() prints and saves its own table
        print(f"== {name} ==")
        ALL_EXPERIMENTS[name].main()
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
