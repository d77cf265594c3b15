"""Shared experiment harness.

Builds models at a configurable scale, runs them through every backend
(ACROBAT, Relay-VM, DyNet / DyNet++, eager, Cortex) and formats result
tables in the layout of the paper's tables.

Two scales are supported:

* ``reduced`` (default) — small hidden sizes and batch sizes so that the
  whole table/figure suite regenerates in minutes on a laptop CPU.  This is
  what the pytest benchmarks use.
* ``paper``   — the paper's hidden sizes (§7.1) and batch sizes {8, 64}.
  Slower, intended for manual runs of the ``repro.experiments`` modules.

Absolute numbers are not expected to match the paper (the device is an
analytical simulator and the host is Python); the comparisons of interest
are the *relative* ones: who wins, by roughly what factor, and where the
crossovers are.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Any, Callable, List, Optional, Sequence, Tuple


from ..baselines import (
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
    #: maps the paper's size names to the size names used for building models
    size_names: Tuple[str, ...] = ("small", "large")
    batch_sizes: Tuple[int, ...] = (8, 64)
    #: override of model sizes (e.g. "test") for the reduced scale
    size_override: Optional[str] = None
    seed: int = 0


REDUCED = ExperimentScale(name="reduced", batch_sizes=(4, 16), size_override="test")
PAPER = ExperimentScale(name="paper", batch_sizes=(8, 64))


def current_scale() -> ExperimentScale:
    """Scale selected via the ``REPRO_SCALE`` environment variable."""
    return PAPER if os.environ.get("REPRO_SCALE", "reduced") == "paper" else REDUCED


def resolve_size_name(scale: ExperimentScale, size_name: str) -> str:
    return scale.size_override or size_name


@lru_cache(maxsize=64)
def build_model(model_name: str, size_name: str, seed: int = 0):
    """Build (and cache) one model's IR module + parameters + size config."""
    module = MODEL_MODULES[model_name]
    mod, params, size = module.build_for(size_name, seed=seed)
    return mod, params, size


def make_instances(model_name: str, mod, size, batch_size: int, seed: int = 0) -> List[Any]:
    """Generate a mini-batch of instances for ``model_name``."""
    return MODEL_MODULES[model_name].make_batch(mod, size, batch_size, seed=seed)


def raw_inputs_for_cortex(model_name: str, size, batch_size: int, seed: int = 0):
    """Cortex consumes the raw data structures rather than ADT values."""
    if model_name == "treelstm":
        return random_treebank(batch_size, size.embed, seed=seed)
    if model_name == "mvrnn":
        mod, _, _ = build_model("mvrnn", size.name if size.name != "test" else "test", 0)
        trees = random_treebank(batch_size, size.hidden, seed=seed)
        return [MODEL_MODULES["mvrnn"].instance_input(mod, t, seed=seed + i) for i, t in enumerate(trees)]
    if model_name == "birnn":
        return random_sequences(batch_size, size.embed, seed=seed)
    raise ValueError(f"Cortex does not support {model_name}")


# ---------------------------------------------------------------------------
# Backend runners (each returns RunStats)
# ---------------------------------------------------------------------------


def best_stats(run_once: Callable[[], RunStats], repeats: Optional[int] = None) -> RunStats:
    """Measure ``run_once`` up to ``repeats`` times and keep the
    lowest-latency result.

    Host time is real wall-clock time, so on a busy machine a one-off
    scheduler preemption can inflate a single measurement several-fold;
    best-of-N is the standard benchmark hygiene against that.  ``repeats``
    defaults to the ``REPRO_BEST_OF`` environment variable (itself defaulting
    to 1, i.e. single-run).
    """
    return best_stats_round_robin([run_once], repeats)[0]


def best_stats_round_robin(
    candidates: Sequence[Callable[[], RunStats]], repeats: Optional[int] = None
) -> List[RunStats]:
    """:func:`best_stats` for candidates whose latencies are compared with
    each other: every round measures each candidate once, so a slow stretch
    of the host (they last seconds to minutes) falls on all of them alike
    instead of on whichever one was being measured."""
    n = repeats if repeats is not None else int(os.environ.get("REPRO_BEST_OF", "1"))
    best: List[Optional[RunStats]] = [None] * len(candidates)
    for _ in range(max(1, n)):
        for k, run_once in enumerate(candidates):
            stats = run_once()
            if best[k] is None or stats.latency_ms < best[k].latency_ms:
                best[k] = stats
    return best


def run_acrobat(
    model_name: str,
    size_name: str,
    batch_size: int,
    options: Optional[CompilerOptions] = None,
    seed: int = 0,
    scheduler: Optional[str] = None,
    repeats: Optional[int] = None,
) -> RunStats:
    """Run the ACROBAT backend.

    ``scheduler`` selects the runtime scheduling policy by registry name
    (e.g. ``"inline_depth"``, ``"dynamic_depth"``, ``"agenda"``,
    ``"nobatch"``); the default derives from the compiler options.
    ``repeats`` takes the best of N measurements (see :func:`best_stats`).
    """
    mod, params, size = build_model(model_name, size_name, seed)
    instances = make_instances(model_name, mod, size, batch_size, seed)
    opts = options or CompilerOptions()
    if scheduler is not None:
        opts = replace(opts, scheduler=scheduler)
    compiled = compile_model(mod, params, opts)
    return best_stats(lambda: compiled.run(instances)[1], repeats)


def run_vm(
    model_name: str,
    size_name: str,
    batch_size: int,
    seed: int = 0,
    repeats: Optional[int] = None,
) -> RunStats:
    mod, params, size = build_model(model_name, size_name, seed)
    instances = make_instances(model_name, mod, size, batch_size, seed)
    vm = compile_model(mod, params, CompilerOptions(aot=False))
    return best_stats(lambda: vm.run(instances)[1], repeats)


def run_dynet(
    model_name: str,
    size_name: str,
    batch_size: int,
    improvements: Optional[DyNetImprovements] = None,
    best_of_schedulers: bool = True,
    seed: int = 0,
    repeats: Optional[int] = None,
) -> RunStats:
    mod, params, size = build_model(model_name, size_name, seed)
    instances = make_instances(model_name, mod, size, batch_size, seed)
    best: Optional[RunStats] = None
    kinds = ("depth", "agenda") if best_of_schedulers else ("agenda",)
    for kind in kinds:
        model = compile_dynet(mod, params, improvements, scheduler_kind=kind)
        stats = best_stats(lambda: model.run(instances)[1], repeats)
        if best is None or stats.latency_ms < best.latency_ms:
            best = stats
    return best


def run_eager(
    model_name: str,
    size_name: str,
    batch_size: int,
    seed: int = 0,
    repeats: Optional[int] = None,
) -> RunStats:
    mod, params, size = build_model(model_name, size_name, seed)
    instances = make_instances(model_name, mod, size, batch_size, seed)
    model = compile_eager(mod, params)
    return best_stats(lambda: model.run(instances)[1], repeats)


def run_cortex(
    model_name: str,
    size_name: str,
    batch_size: int,
    seed: int = 0,
    repeats: Optional[int] = None,
) -> RunStats:
    _, params, size = build_model(model_name, size_name, seed)
    raw = raw_inputs_for_cortex(model_name, size, batch_size, seed)
    model = CortexModel(model_name, params)
    return best_stats(lambda: model.run(raw)[1], repeats)


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
