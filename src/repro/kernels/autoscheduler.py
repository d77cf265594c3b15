"""Auto-scheduler with profile-guided operator priorities (§C.1, Table 9).

The paper relies on TVM's Ansor auto-scheduler to tune each generated
batched kernel and, crucially, allocates the tuning budget across kernels in
proportion to how often each kernel executes — estimated either statically
(a nesting-depth heuristic) or via profile-guided optimization (PGO).

We cannot run Ansor, so the search itself is simulated faithfully in shape:
each kernel has a hidden tuning landscape (a deterministic function of its
name) over tile-size configurations; random search with ``n`` trials keeps
the best configuration found, whose quality feeds the device simulator's
per-kernel ``schedule_table``.  More trials → better expected quality with
diminishing returns, so how the *total* budget is split across kernels —
uniformly (static estimate) or by measured invocation frequency (PGO) —
changes end-to-end latency exactly the way Table 9 reports.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Sequence

import numpy as np

#: quality of a completely untuned schedule
BASE_QUALITY = 0.45
#: best achievable schedule quality
PEAK_QUALITY = 0.98


def _kernel_landscape_seed(kernel_name: str) -> int:
    digest = hashlib.sha256(kernel_name.encode()).digest()
    return int.from_bytes(digest[:4], "little")


def tune_kernel(kernel_name: str, trials: int, seed: int = 0) -> float:
    """Random-search the kernel's (synthetic) schedule space with ``trials``
    candidates and return the best quality found, in (0, 1]."""
    if trials <= 0:
        return BASE_QUALITY
    rng = np.random.default_rng(_kernel_landscape_seed(kernel_name) ^ seed)
    # each candidate's quality: mostly mediocre, occasionally near-optimal —
    # the classic long-tailed tuning landscape
    candidates = BASE_QUALITY + (PEAK_QUALITY - BASE_QUALITY) * rng.beta(1.6, 3.0, size=trials)
    return float(np.max(candidates))


def static_frequency_estimate(kernel_names: Sequence[str]) -> Dict[str, float]:
    """Static invocation-frequency heuristic.

    Without profiling, ACROBAT estimates execution frequency from how deeply
    nested an operator call site is; across one module all generated batched
    kernels sit inside the same level of (data-dependent) recursion, so the
    static estimate degenerates to a uniform weighting — which is exactly why
    PGO helps (Table 9).
    """
    return {name: 1.0 for name in kernel_names}


def profile_frequencies(compiled_model, instances: Sequence[Any]) -> Dict[str, float]:
    """Profile-guided frequency estimate: run one mini-batch and count how
    many times each generated kernel is launched (the launch records of the
    run's trace)."""
    engine = compiled_model.make_engine()  # a private device simulator
    engine.run(instances)
    return {
        name: float(count)
        for name, count in engine.runtime.trace.kernel_launches().items()
    }


def allocate_trials(
    kernel_names: Sequence[str],
    total_trials: int,
    weights: Mapping[str, float],
) -> Dict[str, int]:
    """Split ``total_trials`` across kernels proportionally to ``weights``
    (missing weights count as the smallest observed weight)."""
    names = list(kernel_names)
    if not names:
        return {}
    floor = min([w for w in weights.values() if w > 0] or [1.0])
    raw = np.array([float(weights.get(n, floor)) for n in names], dtype=np.float64)
    raw = raw / raw.sum()
    alloc = np.floor(raw * total_trials).astype(int)
    remainder = total_trials - int(alloc.sum())
    order = np.argsort(-raw)
    for i in range(remainder):
        alloc[order[i % len(names)]] += 1
    return {n: int(a) for n, a in zip(names, alloc)}


@dataclass
class AutoScheduleResult:
    """Outcome of one auto-scheduling session."""

    schedule_table: Dict[str, float]
    trials: Dict[str, int]
    total_trials: int
    used_pgo: bool


def auto_schedule(
    compiled_model,
    total_trials: int,
    use_pgo: bool = True,
    sample_instances: Optional[Sequence[Any]] = None,
    seed: int = 0,
) -> AutoScheduleResult:
    """Tune every generated kernel of ``compiled_model`` under a total trial
    budget and install the resulting schedule table on the model.

    With ``use_pgo`` the budget is split by measured kernel invocation counts
    (requires ``sample_instances``); otherwise the static uniform estimate is
    used.
    """
    kernel_names = sorted(set(compiled_model.kernel_names()))
    if use_pgo:
        if sample_instances is None:
            raise ValueError("PGO auto-scheduling needs sample_instances to profile")
        weights = profile_frequencies(compiled_model, sample_instances)
    else:
        weights = static_frequency_estimate(kernel_names)
    trials = allocate_trials(kernel_names, total_trials, weights)
    table = {name: tune_kernel(name, trials.get(name, 0), seed) for name in kernel_names}
    compiled_model.schedule_table.update(table)
    return AutoScheduleResult(
        schedule_table=table,
        trials=trials,
        total_trials=total_trials,
        used_pgo=use_pgo,
    )
