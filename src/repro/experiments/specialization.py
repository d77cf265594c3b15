"""Kernel-specialization benchmark: steady-state dispatch + planning cost.

Measures what the shape-keyed specialization tier (:mod:`repro.specialize`)
is for: a serving session replaying structurally identical rounds pays host
time per round for memory planning and operand resolution (*dispatch*).
The plan cache already collapses planning to template replay; the
specialization tier collapses dispatch — promoted fingerprints resolve
through a frozen gather layout instead of re-deriving it.

One row per serving model, comparing steady-state ``dispatch +
memory_planning`` ms/round with the tier off vs on (same plan cache, same
scheduler, same requests).  Warmup rounds cover code-path warmup *and* the
promotion ramp (fingerprints promote after ``specialize_threshold``
recurrences), so the measured window is pure steady state.  Every round of
every configuration is checked *bitwise* against the eager reference —
specialization must be reference-identical, not merely close.

Methodology notes:

* host time is wall-clock, so each configuration is measured best-of-N
  (``REPRO_BEST_OF``, floor 3) — sub-millisecond per-round buckets on a
  busy host need the same hygiene as the other tables;
* the cyclic garbage collector is quiesced (collect, then disable) around
  each measured session, for both configurations: collector pauses trigger
  at allocation sites, which concentrates them in the allocation-heavy
  planning bucket and would otherwise add multi-tenth-millisecond noise to
  a sub-millisecond measurement (the same reason ``pyperf`` disables GC);
* requests are resubmitted each round from one request set, exactly the
  plan-cache steady-state scenario (PR 3's table) this tier extends.
"""

from __future__ import annotations

import argparse
import gc
import os
from typing import List, Optional, Tuple

import numpy as np

from ..compiler.options import CompilerOptions
from ..core.api import compile_model, reference_run
from ..utils import flatten_arrays
from .harness import (
    ExperimentScale,
    build_model,
    current_scale,
    format_table,
    make_instances,
    resolve_size_name,
    save_result,
)

MODELS = ("treelstm", "birnn", "stackrnn")

HEADERS = (
    "model",
    "rounds",
    "off_ms/round",
    "on_ms/round",
    "speedup",
    "dispatch_speedup",
    "promotions",
    "hits",
    "exact",
)


def _best_of() -> int:
    # sub-millisecond buckets: never fewer than 3 measurements
    return max(3, int(os.environ.get("REPRO_BEST_OF", "1")))


def _exact(a, b) -> bool:
    fa, fb = flatten_arrays(a), flatten_arrays(b)
    return len(fa) == len(fb) and all(
        np.array_equal(np.asarray(x), np.asarray(y)) for x, y in zip(fa, fb)
    )


def _measure(
    mod,
    params,
    requests,
    reference,
    specialize: bool,
    rounds: int,
    warmup: int,
    batch: int,
) -> Tuple[float, float, dict, bool]:
    """One serving session: returns (dispatch+planning ms/round,
    dispatch ms/round, specialize stats, reference-identical?) averaged
    over the measured (post-warmup) rounds."""
    compiled = compile_model(
        mod, params, CompilerOptions(kernel_specialization=specialize)
    )
    session = compiled.session(flush_policy="size", flush_args={"n": batch})
    total = dispatch = 0.0
    exact = True
    gc.collect()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for round_no in range(warmup + rounds):
            handles = [session.submit(r) for r in requests]
            session.flush()
            exact = exact and all(
                _exact(a, h.result()) for a, h in zip(reference, handles)
            )
            stats = session.last_stats
            if round_no >= warmup:
                d = stats.host_ms["dispatch"]
                dispatch += d
                total += d + stats.host_ms["memory_planning"]
    finally:
        if gc_was_enabled:
            gc.enable()
    return (
        total / rounds,
        dispatch / rounds,
        dict(session.last_stats.specialize or {}),
        exact,
    )


def run(
    scale: Optional[ExperimentScale] = None,
    rounds: int = 24,
    warmup: int = 6,
    batch: int = 8,
    best_of: Optional[int] = None,
) -> Tuple[Tuple[str, ...], List[List]]:
    """The specialization table: steady-state dispatch + planning ms/round,
    tier off vs on, one row per serving model."""
    scale = scale or current_scale()
    size_name = resolve_size_name(scale, scale.size_names[0])
    repeats = best_of if best_of is not None else _best_of()

    rows: List[List] = []
    for model_name in MODELS:
        mod, params, size = build_model(model_name, size_name, scale.seed)
        requests = make_instances(model_name, mod, size, batch, seed=scale.seed + 2)
        reference = reference_run(mod, params, requests)

        def once(specialize: bool):
            return _measure(
                mod, params, requests, reference, specialize, rounds, warmup, batch
            )

        # one untimed warmup per config, then best-of-N on the combined
        # steady-state bucket (the quantity the table reports)
        once(False)
        off = min((once(False) for _ in range(repeats)), key=lambda m: m[0])
        on = min((once(True) for _ in range(repeats)), key=lambda m: m[0])
        (off_ms, off_dispatch, _, off_exact) = off
        (on_ms, on_dispatch, spec, on_exact) = on
        rows.append(
            [
                model_name,
                rounds,
                off_ms,
                on_ms,
                off_ms / on_ms,
                off_dispatch / on_dispatch,
                int(spec.get("promotions", 0)),
                int(spec.get("hits", 0)),
                "yes" if (off_exact and on_exact) else "NO",
            ]
        )
    return HEADERS, rows


def format_report(headers: Tuple[str, ...], rows: List[List]) -> str:
    return format_table(
        headers,
        rows,
        title=(
            "Kernel specialization: steady-state serving, dispatch + "
            "memory-planning ms/round (plan cache on in both configs; "
            "exact = bitwise-identical to the eager reference)"
        ),
    )


def main(argv: Optional[List[str]] = None) -> str:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.specialization",
        description="Steady-state serving cost with the shape-keyed "
        "kernel-specialization tier off vs on.",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke: fewer rounds, single measurement, no result file",
    )
    args = parser.parse_args(list(argv) if argv is not None else [])
    if args.quick:
        headers, rows = run(rounds=6, warmup=4, batch=6, best_of=1)
        text = format_report(headers, rows)
        print(text)
        # the smoke gate: specialization engaged and stayed exact (speedup
        # floors are asserted by benchmarks/test_specialization.py, not by
        # a quick run on a shared CI box)
        for row in rows:
            assert row[-1] == "yes", f"{row[0]}: specialized run diverged"
        assert any(row[6] > 0 for row in rows), "no fingerprint promoted"
        return text
    headers, rows = run()
    text = format_report(headers, rows)
    print(text)
    save_result("specialization", text)
    return text


if __name__ == "__main__":
    import sys

    main(sys.argv[1:])
