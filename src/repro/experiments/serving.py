"""Serving benchmark: open-loop traffic through the flush-policy matrix.

The paper's tables measure one mini-batch at a time; a serving system sees
*traffic*.  This driver replays Poisson arrivals (open-loop: arrival times
are fixed in advance, so queueing under load is measured honestly) against
TreeLSTM and BiRNN sessions under every built-in flush policy and reports
the latency-vs-throughput tradeoff each policy picks:

* ``per_request`` — flush after every submit (no cross-request batching;
  the baseline every policy is compared against);
* ``size(8)`` — classic fixed-size batching;
* ``deadline(5ms)`` — bounded queueing delay;
* ``adaptive`` — cost-model-driven batching (continuous batching under
  backlog).

Reported per configuration: throughput, p50/p99 end-to-end latency on the
simulated clock, mean batch size, total kernel launches and the launch
reduction vs ``per_request``.  Every policy's outputs are checked against
the eager reference — batching policy must never change results.  The
replay is deterministic: measured host wall time is excluded and replaced
by the fixed linear ``HOST_MODEL`` cost, so every column is a pure
function of the trace and the device cost model (bit-for-bit identical
across runs and hosts).

A second table isolates the memory planner's plan cache
(:mod:`repro.memory.planner`): a session flushing structurally identical
rounds replays cached plans, and the table compares the deterministic
hit/miss counters against the uncached path.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..compiler.options import CompilerOptions
from ..core.api import compile_model, reference_run
from ..serve.traffic import poisson_arrivals
from ..utils import bitwise_equal
from .harness import (
    ExperimentScale,
    build_model,
    current_scale,
    format_table,
    make_instances,
    publish,
    resolve_size_name,
)
from .runner import Row, prepare, replay_row, tag, yes

HEADERS = (
    "model",
    "policy",
    "throughput_rps",
    "p50_ms",
    "p99_ms",
    "mean_batch",
    "launches",
    "launch_reduction",
    "matches_ref",
)

CACHE_HEADERS = (
    "config",
    "flushes",
    "hits",
    "misses",
    "hit_rate",
)

#: flush-policy matrix: (row label, registry name, policy arguments)
POLICIES: Tuple[Tuple[str, str, Dict], ...] = (
    ("per_request", "size", {"n": 1}),
    ("size(8)", "size", {"n": 8}),
    ("deadline(5ms)", "deadline", {"ms": 5.0}),
    ("adaptive", "adaptive", {}),
)

MODELS = ("treelstm", "birnn")

#: open-loop arrival rate (requests/second on the simulated clock) and
#: request-trace length per scale; the rate is set well above the
#: per-request service rate so batching pressure is real (open-loop
#: saturation), keeping the launch-reduction margins stable across hosts
ARRIVAL_RATE = {"reduced": 4000.0, "paper": 2000.0}
NUM_REQUESTS = {"reduced": 32, "paper": 64}

#: deterministic linear host-cost model (ms per round, ms per request)
#: charged in place of measured wall time: the policy matrix replays
#: bit-for-bit on any host, so the launch-reduction and latency columns
#: are pure functions of the trace + cost model (no perf-floor flake)
HOST_MODEL = (0.5, 0.05)


def run(scale: Optional[ExperimentScale] = None) -> Tuple[Tuple[str, ...], List[List]]:
    """The policy-matrix traffic table (one row per model x policy)."""
    scale = scale or current_scale()
    n = NUM_REQUESTS.get(scale.name, 32)
    rate = ARRIVAL_RATE.get(scale.name, 2500.0)

    size_name = resolve_size_name(scale, scale.size_names[0])
    rows: List[List] = []
    for model_name in MODELS:
        compiled, requests, reference = prepare(model_name, size_name, n, scale.seed, scale.seed + 1)
        trace = tag(poisson_arrivals(rate, n, seed=scale.seed), requests)

        base_launches: Optional[int] = None
        for label, policy, policy_args in POLICIES:
            result = replay_row(
                Row(
                    compiled,
                    trace,
                    reference,
                    policy,
                    policy_args,
                    continuous=False,
                    host_model=HOST_MODEL,
                )
            )
            report = result.reports["m"]
            if label == "per_request":
                base_launches = report.kernel_launches
            rows.append(
                [
                    model_name,
                    label,
                    report.throughput_rps,
                    report.p50_ms,
                    report.p99_ms,
                    report.mean_batch,
                    report.kernel_launches,
                    base_launches / report.kernel_launches,
                    yes(result.matches_ref),
                ]
            )
    return HEADERS, rows


def run_plan_cache(
    scale: Optional[ExperimentScale] = None,
    rounds: int = 4,
    batch: int = 8,
) -> Tuple[Tuple[str, ...], List[List]]:
    """The plan-cache table: ``rounds`` structurally identical session
    flushes with the cache on vs off."""
    scale = scale or current_scale()
    size_name = resolve_size_name(scale, scale.size_names[0])
    mod, params, size = build_model("treelstm", size_name, scale.seed)
    requests = make_instances("treelstm", mod, size, batch, seed=scale.seed + 2)
    reference = reference_run(mod, params, requests)

    rows: List[List] = []
    for label, cached in (("plan_cache=on", True), ("plan_cache=off", False)):
        compiled = compile_model(mod, params, CompilerOptions(plan_cache=cached))
        session = compiled.session(flush_policy="size", flush_args={"n": batch})
        for _ in range(rounds):
            handles = [session.submit(r) for r in requests]
            assert all(
                bitwise_equal(a, h.result()) for a, h in zip(reference, handles)
            ), "plan-cached session diverged from the reference"
        # hit/miss counters are a pure function of the flush structure (the
        # wall-clock memory_planning bucket is not, and is not reported)
        memory = session.last_stats.memory
        hits, misses = memory["plan_cache_hits"], memory["plan_cache_misses"]
        rows.append([label, rounds, hits, misses, hits / max(1, hits + misses)])
    return CACHE_HEADERS, rows


def format_report(
    headers: Tuple[str, ...],
    rows: List[List],
    cache_headers: Tuple[str, ...],
    cache_rows: List[List],
) -> str:
    """Both tables as one result file."""
    parts = [
        format_table(
            headers,
            rows,
            title=(
                "Serving: open-loop Poisson traffic, flush-policy matrix "
                "(simulated clock; latencies include queueing + execution)"
            ),
        ),
        "",
        format_table(
            cache_headers,
            cache_rows,
            title="Plan cache: structurally identical session flushes (TreeLSTM)",
        ),
    ]
    return "\n".join(parts)


def main() -> str:
    return publish("serving", format_report(*run(), *run_plan_cache()))


if __name__ == "__main__":
    main()
