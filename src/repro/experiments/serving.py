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
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..serve.traffic import poisson_arrivals
from .harness import (
    ExperimentScale,
    current_scale,
    format_table,
    publish,
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
    n = NUM_REQUESTS[scale.name]
    rate = ARRIVAL_RATE[scale.name]

    size_name = scale.size_names[0]
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


def format_report(headers: Tuple[str, ...], rows: List[List]) -> str:
    return format_table(
        headers,
        rows,
        title=(
            "Serving: open-loop Poisson traffic, flush-policy matrix "
            "(simulated clock; latencies include queueing + execution)"
        ),
    )


def main() -> str:
    return publish("serving", format_report(*run()))


if __name__ == "__main__":
    main()
