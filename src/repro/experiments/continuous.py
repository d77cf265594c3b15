"""Continuous-vs-caller-driven serving benchmark under bursty traffic.

The serving benchmark (:mod:`repro.experiments.serving`) measures *when* to
flush and the sharding benchmark *where*; this one measures **who drives
the intake**.  The same bursty open-loop trace is replayed twice per
model/flush-policy pair:

* ``caller`` — the historical single-threaded choreography
  (``Server.replay(continuous=False)``): each flush blocks intake for the
  round's full latency, so requests arriving during execution are only
  submitted after the round completes and the device idles while the host
  builds the next round;
* ``continuous`` — the :class:`~repro.serve.loop.ServeLoop`
  (``Server.replay(continuous=True)``): rounds launch onto the
  device timeline the moment the policy fires, intake streams on while the
  device executes, in-flight rounds inform the adaptive policy, and the
  device-idle wakeup launches the accumulated backlog back-to-back.

Both modes run **deterministically**: measured host wall time is excluded
and replaced by a fixed linear host-cost model (``HOST_MODEL`` ms per round
+ per request, the same for both modes), so every number in the table is a
pure function of the trace and the device cost model — the table is
bit-for-bit reproducible across runs and hosts, which the
``deterministic`` column verifies by replaying each configuration twice.

Like the sharding sweep, the benchmark runs paper-"small" models on the
deliberately compute-starved edge-class spec so the device — not this
reproduction's Python host — is the bottleneck; the traffic rate sits at
open-loop saturation, where the caller-driven loop's blocked intake
visibly costs throughput and tail latency.  Every row's outputs are
checked against the eager reference — intake choreography must never
change results.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..serve.traffic import bursty_arrivals
from .harness import ExperimentScale, current_scale, format_table, publish
from .runner import Row, prepare, replay_row, tag, yes
from .sharding import EDGE_SPEC

HEADERS = (
    "model",
    "policy",
    "mode",
    "throughput_rps",
    "p50_ms",
    "p99_ms",
    "mean_batch",
    "flushes",
    "launches",
    "matches_ref",
    "deterministic",
)

MODELS = ("treelstm", "birnn")

#: flush-policy pairs compared under both intake modes
POLICIES: Tuple[Tuple[str, str, Dict], ...] = (
    ("deadline(5ms)", "deadline", {"ms": 5.0}),
    ("adaptive", "adaptive", {}),
)

#: device-bound regime (see module docstring): paper-"small" sizes on the
#: sharding sweep's edge-class spec
SIZE_NAME = "small"

#: bursty open-loop traffic at saturation: bursts of BURST near-simultaneous
#: requests, average rate just above the single-device service rate
ARRIVAL_RATE = 200.0
NUM_REQUESTS = {"reduced": 48, "paper": 96}
BURST = 6

#: deterministic host-cost model, identical for both modes:
#: (per_round_ms, per_request_ms) of serial host work per flush — the
#: blocked-intake phenomenon a caller-driven loop suffers from, without
#: wall-clock noise (constants in the ballpark of the measured Python host
#: share at this scale)
HOST_MODEL = (2.0, 0.75)


def run(scale: Optional[ExperimentScale] = None) -> Tuple[Tuple[str, ...], List[List]]:
    """The intake-mode table (one row per model x policy x mode)."""
    scale = scale or current_scale()
    n = NUM_REQUESTS[scale.name]

    rows: List[List] = []
    for model_name in MODELS:
        compiled, requests, reference = prepare(model_name, SIZE_NAME, n, scale.seed, scale.seed + 4)
        trace = tag(bursty_arrivals(ARRIVAL_RATE, n, burst=BURST, seed=scale.seed + 5), requests)

        for label, policy, policy_args in POLICIES:
            for mode in ("caller", "continuous"):
                result = replay_row(
                    Row(
                        compiled,
                        trace,
                        reference,
                        policy,
                        policy_args,
                        continuous=mode == "continuous",
                        host_model=HOST_MODEL,
                        server_args={"gpu_spec": EDGE_SPEC},
                    )
                )
                report = result.reports["m"]
                rows.append(
                    [
                        model_name,
                        label,
                        mode,
                        report.throughput_rps,
                        report.p50_ms,
                        report.p99_ms,
                        report.mean_batch,
                        report.num_flushes,
                        report.kernel_launches,
                        yes(result.matches_ref),
                        yes(result.deterministic),
                    ]
                )
    return HEADERS, rows


def format_report(headers: Tuple[str, ...], rows: List[List]) -> str:
    return format_table(
        headers,
        rows,
        title=(
            "Continuous batching: bursty open-loop traffic, caller-driven vs "
            f"event-loop intake ({SIZE_NAME}-size models on a "
            f"{EDGE_SPEC.name} device; deterministic simulated time, host "
            f"model {HOST_MODEL[0]}ms/round + {HOST_MODEL[1]}ms/request)"
        ),
    )


def main() -> str:
    return publish("continuous", format_report(*run()))


if __name__ == "__main__":
    main()
