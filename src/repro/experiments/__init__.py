"""Experiment drivers that regenerate every table and figure of the paper's
evaluation (§7) and the serving benchmarks.

The seven paper tables (``table4``–``table8``, ``figure5``, ``figure6``) are
specs in :mod:`repro.experiments.tables` over one measured-row primitive
(:func:`repro.experiments.harness.measure_row`); the deterministic serving
experiments share one runner (:mod:`repro.experiments.runner`).  Every
experiment has a ``main()`` that prints its table and saves it under
``benchmarks/results/``; ``python -m repro.experiments table5`` runs one.

Set ``REPRO_SCALE=paper`` to use the paper's model sizes and batch sizes
(slower); the default ``reduced`` scale builds the ``test`` size and
regenerates everything in minutes.
"""

from . import (
    continuous,
    generation,
    multiloop,
    serving,
    sharding,
)
from .harness import (
    PAPER,
    REDUCED,
    ExperimentScale,
    current_scale,
    format_table,
    measure_row,
    save_result,
)
from .tables import TABLES, PaperTable

ALL_EXPERIMENTS = {
    **TABLES,
    "serving": serving,
    "sharding": sharding,
    "continuous": continuous,
    "generation": generation,
    "multiloop": multiloop,
}

__all__ = [
    "serving", "sharding", "continuous", "generation", "multiloop",
    "ALL_EXPERIMENTS", "TABLES", "PaperTable",
    "ExperimentScale", "REDUCED", "PAPER", "current_scale",
    "measure_row", "format_table", "save_result",
]
