"""Shared experiment harness.

Builds models at a configurable scale, measures table rows through every
backend (ACROBAT, Relay-VM, DyNet / DyNet++, eager, Cortex) with one
primitive, :func:`measure_row`, and formats result tables in the layout of
the paper's tables.

Two scales are supported:

* ``reduced`` (default) — one model size, ``test``, and small batch sizes
  so that the whole table/figure suite regenerates in minutes on a laptop
  CPU.  This is what the pytest benchmarks use.
* ``paper``   — the paper's hidden sizes (§7.1) and batch sizes {8, 64}.
  Slower, intended for manual runs of ``python -m repro.experiments``.

Absolute numbers are not expected to match the paper (the device is an
analytical simulator and the host is Python); the comparisons of interest
are the *relative* ones: who wins, by roughly what factor, and where the
crossovers are.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..baselines import (
    DYNET_SCHEMES,
    CortexModel,
    DyNetImprovements,
    compile_dynet,
    compile_eager,
)
from ..compiler.options import CompilerOptions
from ..core.api import compile_model
from ..data.sequences import random_sequences
from ..data.trees import random_treebank
from ..models import MODEL_MODULES
from ..runtime.executor import RunStats


@dataclass(frozen=True)
class ExperimentScale:
    """Workload scale used by the experiment drivers."""

    name: str
    #: the model sizes every row is built at, and labelled by
    size_names: Tuple[str, ...] = ("small", "large")
    batch_sizes: Tuple[int, ...] = (8, 64)
    #: Figure 5's batch-size sweep
    figure5_batches: Tuple[int, ...] = (1, 2, 4, 8, 16)
    seed: int = 0


REDUCED = ExperimentScale(
    name="reduced", size_names=("test",), batch_sizes=(4, 16), figure5_batches=(1, 2, 4, 8, 16)
)
PAPER = ExperimentScale(name="paper", batch_sizes=(8, 64), figure5_batches=(1, 2, 4, 8, 16, 32, 64, 128))


def current_scale() -> ExperimentScale:
    """Scale selected via the ``REPRO_SCALE`` environment variable."""
    return PAPER if os.environ.get("REPRO_SCALE", "reduced") == "paper" else REDUCED


@lru_cache(maxsize=64)
def build_model(model_name: str, size_name: str, seed: int = 0):
    """Build (and cache) one model's IR module + parameters + size config."""
    module = MODEL_MODULES[model_name]
    mod, params, size = module.build_for(size_name, seed=seed)
    return mod, params, size


def make_instances(model_name: str, mod, size, batch_size: int, seed: int = 0) -> List[Any]:
    """Generate a mini-batch of instances for ``model_name``."""
    return MODEL_MODULES[model_name].make_batch(mod, size, batch_size, seed=seed)


# ---------------------------------------------------------------------------
# Measured rows
# ---------------------------------------------------------------------------

#: every measured cell is the best of this many runs
BEST_OF = 3


@dataclass(frozen=True)
class Workload:
    """One row's model and instances, built once and shared by its columns."""

    model: str
    batch: int
    seed: int
    mod: Any
    params: Any
    config: Any
    instances: List[Any]


#: a column builds its runnables once per row: scheme name -> one measured run
Column = Callable[[Workload], Dict[str, Callable[[], RunStats]]]


class Cell(NamedTuple):
    """A column's measurement: the faster scheme's best run."""

    scheme: str
    stats: RunStats


def best_of_round_robin(candidates: Sequence[Callable[[], RunStats]]) -> List[RunStats]:
    """Run every candidate :data:`BEST_OF` times, one round measuring each
    candidate once, and keep each one's lowest-latency run.

    Host time is real wall-clock time: a one-off preemption can inflate a
    single run several-fold, and a slow stretch of the host (seconds to
    minutes) falls on all the candidates of a round alike instead of on
    whichever one was being measured."""
    best: List[Optional[RunStats]] = [None] * len(candidates)
    for _ in range(BEST_OF):
        for k, run_once in enumerate(candidates):
            stats = run_once()
            if best[k] is None or stats.latency_ms < best[k].latency_ms:
                best[k] = stats
    return best


def measure_row(
    model_name: str, size_name: str, batch_size: int, columns: Sequence[Column], seed: int = 0
) -> List[Cell]:
    """Measure one table row: build the model and draw the instances once,
    build each column's runnables once, measure them all round-robin, and
    keep each column's faster scheme."""
    mod, params, config = build_model(model_name, size_name, seed)
    instances = make_instances(model_name, mod, config, batch_size, seed)
    workload = Workload(model_name, batch_size, seed, mod, params, config, instances)
    built = [column(workload) for column in columns]
    runs = iter(best_of_round_robin([run for schemes in built for run in schemes.values()]))
    cells = []
    for schemes in built:
        measured = [Cell(scheme, next(runs)) for scheme in schemes]
        cells.append(min(measured, key=lambda cell: cell.stats.latency_ms))
    return cells


def acrobat(options: Optional[CompilerOptions] = None) -> Column:
    """ACROBAT under ``options`` (whose ``scheduler`` names the runtime
    scheduling policy)."""

    def build(w: Workload):
        compiled = compile_model(w.mod, w.params, options or CompilerOptions())
        return {"acrobat": lambda: compiled.run(w.instances)[1]}

    return build


def vm(w: Workload):
    """Column: the Relay-VM-style interpreter driving the same batching runtime."""
    model = compile_model(w.mod, w.params, CompilerOptions(aot=False))
    return {"vm": lambda: model.run(w.instances)[1]}


def eager(w: Workload):
    """Column: eager (unbatched, PyTorch-style) execution."""
    model = compile_eager(w.mod, w.params)
    return {"eager": lambda: model.run(w.instances)[1]}


def dynet(improvements: Optional[DyNetImprovements] = None) -> Column:
    """DyNet (or DN++ with ``improvements``): both of its scheduling schemes
    are candidates and the faster one is kept, as in the paper."""

    def build(w: Workload):
        schemes = {}
        for kind in DYNET_SCHEMES:
            model = compile_dynet(w.mod, w.params, improvements, scheduler_kind=kind)
            schemes[kind] = lambda model=model: model.run(w.instances)[1]
        return schemes

    return build


def cortex(w: Workload):
    """Column: Cortex, which consumes the raw data structures rather than ADT
    values (and raises for a model it does not support)."""
    model = CortexModel(w.model, w.params)
    if w.model == "treelstm":
        raw = random_treebank(w.batch, w.config.embed, seed=w.seed)
    elif w.model == "mvrnn":
        trees = random_treebank(w.batch, w.config.hidden, seed=w.seed)
        raw = [MODEL_MODULES["mvrnn"].instance_input(w.mod, t, seed=w.seed + i) for i, t in enumerate(trees)]
    else:
        raw = random_sequences(w.batch, w.config.embed, seed=w.seed)
    return {"cortex": lambda: model.run(raw)[1]}


# ---------------------------------------------------------------------------
# Table formatting
# ---------------------------------------------------------------------------


def format_table(headers: Sequence[str], rows: Sequence[Sequence[Any]], title: str = "") -> str:
    """Render a plain-text table (fixed-width columns)."""
    str_rows = [[_fmt(c) for c in row] for row in rows]
    widths = [
        max(len(str(h)), *(len(r[i]) for r in str_rows)) if str_rows else len(str(h))
        for i, h in enumerate(headers)
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def save_result(name: str, text: str) -> str:
    """Write a result table under ``benchmarks/results`` (and return the path)."""
    out_dir = os.environ.get("REPRO_RESULTS_DIR", os.path.join(os.getcwd(), "benchmarks", "results"))
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{name}.txt")
    with open(path, "w") as fh:
        fh.write(text + "\n")
    return path


def publish(name: str, text: str) -> str:
    """Print a formatted result table and save it as ``<name>.txt``."""
    print(text)
    save_result(name, text)
    return text
