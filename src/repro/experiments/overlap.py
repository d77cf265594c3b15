"""Overlapped host pipeline benchmark: prepare round N+1 while round N runs.

The continuous-batching benchmark (:mod:`repro.experiments.continuous`)
measures who drives the intake; this one measures **when the host works**.
The same bursty open-loop trace is replayed twice per model/flush-policy
pair on one :class:`~repro.serve.loop.ServeLoop`:

* ``serial`` — every flush pays its full host share (DFG bookkeeping,
  scheduling, placement, memory planning, dispatch) serially before the
  round's device share launches, exactly as before the pipeline existed;
* ``overlap`` — the loop's prepare pipeline (``prepare=True``)
  speculatively builds the predicted next round — schedule, placement,
  memory plan — while the previous round's device share is still in
  flight, so an adopted flush only pays the unpreparable remainder
  (:attr:`~repro.serve.session.InferenceSession.prepare_share` of the
  modelled host cost comes off the serial path, capped by the actual
  speculation window).

The regime is deliberately **host-bound**: a steep deterministic host-cost
model (``HOST_MODEL`` ms per round + per request) over the compute-starved
edge-class device spec, with bursty traffic past the serial loop's
saturation point — the configuration where ACROBAT's Python-side round
construction is the bottleneck and hiding it behind device time pays
directly in throughput.

Both modes run **deterministically**: measured host wall time is excluded,
speculation resolves at fixed event-loop points, and a wrong speculation
costs only modelled host work — so every number is a pure function of the
trace and the cost models.  The ``deterministic`` column replays each
configuration twice and checks bit-for-bit equality (latencies *and*
outputs); ``matches_ref`` checks both modes against the eager reference.
"""

from __future__ import annotations

import argparse
from typing import Dict, List, Optional, Tuple

from ..compiler.options import CompilerOptions
from ..core.api import compile_model, reference_run
from ..runtime.device import DeviceSimulator, GPUSpec
from ..serve.clock import SimulatedClock
from ..serve.traffic import TrafficReport, bursty_arrivals, replay_continuous
from ..utils import values_allclose
from .continuous import _bitwise_equal
from .harness import (
    ExperimentScale,
    build_model,
    current_scale,
    format_table,
    make_instances,
    save_result,
)

HEADERS = (
    "model",
    "policy",
    "serial_rps",
    "overlap_rps",
    "speedup",
    "p50_serial_ms",
    "p50_overlap_ms",
    "mean_batch",
    "hidden_ms",
    "spec_hits",
    "spec_aborts",
    "matches_ref",
    "deterministic",
)

MODELS = ("treelstm", "birnn")

#: flush-policy pairs replayed in both modes; the adaptive rows are the
#: host-bound throughput headline (benchmarks/test_overlap.py gates on
#: them): the policy's round cap makes every flush take the oldest-32
#: prefix, so later arrivals append *behind* the speculatively prepared
#: round and every warm round adopts it — rounds chain at device
#: completion events with a full device flight as the prepare window.
#: The deadline rows double as the uncapped ablation: flush-takes-all
#: rounds change composition with every arrival, so speculation rarely
#: survives to adoption and the pipeline buys ~nothing — the contrast
#: that motivates the round cap.
POLICIES: Tuple[Tuple[str, str, Dict], ...] = (
    ("adaptive", "adaptive", {"max_batch": 32, "max_wait_ms": 300.0}),
    ("deadline(8ms)", "deadline", {"ms": 8.0}),
)

SIZE_NAME = "small"

#: mid-tier device spec for the host-bound regime: fast enough that the
#: host cost model dominates each round (unlike the sharding sweep's
#: compute-starved edge spec, whose ~100ms rounds would drown any host-side
#: win), slow enough that the device share — the window speculation hides
#: host work behind — is a solid fraction of the round
OVERLAP_SPEC = GPUSpec(
    name="simulated-midrange",
    launch_overhead_us=5.0,
    api_overhead_us=4.0,
    mem_bandwidth_gbps=10.0,
    peak_gflops=100.0,
    pcie_bandwidth_gbps=8.0,
    memcpy_overhead_us=7.0,
    saturation_flops=2.0e5,
    min_utilization=0.05,
)

#: bursty open-loop traffic past the *overlapped* loop's saturation point,
#: so the measured throughput is each mode's service capacity, not the
#: trace's arrival rate — hiding host work then shows up directly as
#: throughput
ARRIVAL_RATE = {"reduced": 2600.0, "paper": 2600.0}
NUM_REQUESTS = {"reduced": 192, "paper": 384}
BURST = 8

#: deterministic host-cost model, identical for both modes:
#: (per_round_ms, per_request_ms) of serial host work per flush.  Steeper
#: than the continuous benchmark's model — this table measures the
#: host-bound regime, where round construction rivals device execution
HOST_MODEL = (3.0, 0.5)


def _replay(
    compiled, requests, arrivals, policy: str, policy_args: Dict, prepare: bool
) -> Tuple[TrafficReport, object]:
    session = compiled.serve(
        policy,
        clock=SimulatedClock(),
        device=DeviceSimulator(spec=OVERLAP_SPEC),
        **policy_args,
    )
    report = replay_continuous(
        session,
        requests,
        arrivals,
        deterministic=True,
        host_model=HOST_MODEL,
        prepare=prepare,
    )
    return report, session


def run(
    scale: Optional[ExperimentScale] = None, models: Tuple[str, ...] = MODELS
) -> Tuple[Tuple[str, ...], List[List]]:
    """The overlap table (one row per model x policy, serial vs overlap)."""
    scale = scale or current_scale()
    n = NUM_REQUESTS.get(scale.name, 64)
    rate = ARRIVAL_RATE.get(scale.name, 700.0)

    rows: List[List] = []
    for model_name in models:
        mod, params, size = build_model(model_name, SIZE_NAME, scale.seed)
        requests = make_instances(model_name, mod, size, n, seed=scale.seed + 6)
        reference = reference_run(mod, params, requests)
        compiled = compile_model(mod, params, CompilerOptions())
        arrivals = bursty_arrivals(rate, n, burst=BURST, seed=scale.seed + 7)

        for label, policy, policy_args in POLICIES:
            serial, _ = _replay(compiled, requests, arrivals, policy, policy_args, False)
            overlap, session = _replay(
                compiled, requests, arrivals, policy, policy_args, True
            )
            # bit-for-bit determinism: the same trace replayed again, in
            # both modes, must reproduce latencies and outputs exactly —
            # speculation aborts and all
            serial2, _ = _replay(compiled, requests, arrivals, policy, policy_args, False)
            overlap2, _ = _replay(
                compiled, requests, arrivals, policy, policy_args, True
            )
            deterministic = (
                serial.latencies_ms == serial2.latencies_ms
                and overlap.latencies_ms == overlap2.latencies_ms
                and _bitwise_equal(serial.outputs, serial2.outputs)
                and _bitwise_equal(overlap.outputs, overlap2.outputs)
            )
            ok = all(
                values_allclose(a, b) for a, b in zip(reference, serial.outputs)
            ) and all(
                values_allclose(a, b) for a, b in zip(reference, overlap.outputs)
            )
            rows.append(
                [
                    model_name,
                    label,
                    serial.throughput_rps,
                    overlap.throughput_rps,
                    overlap.throughput_rps / serial.throughput_rps,
                    serial.p50_ms,
                    overlap.p50_ms,
                    overlap.mean_batch,
                    session.prepare_hidden_ms,
                    session.speculation_hits,
                    session.speculation_aborts,
                    "yes" if ok else "NO",
                    "yes" if deterministic else "NO",
                ]
            )
    return HEADERS, rows


def format_report(headers: Tuple[str, ...], rows: List[List]) -> str:
    return format_table(
        headers,
        rows,
        title=(
            "Overlapped host pipeline: serial vs speculative round "
            f"preparation ({SIZE_NAME}-size models on a {OVERLAP_SPEC.name} "
            f"device; deterministic simulated time, host model "
            f"{HOST_MODEL[0]}ms/round + {HOST_MODEL[1]}ms/request, traffic "
            "past serial saturation)"
        ),
    )


def main(argv: Optional[List[str]] = None) -> str:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.overlap",
        description="Host-bound serving throughput with the overlapped "
        "prepare pipeline off vs on.",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke: one model, asserts overlap engaged + bitwise "
        "identity, no result file",
    )
    args = parser.parse_args(list(argv) if argv is not None else [])
    if args.quick:
        headers, rows = run(models=("treelstm",))
        text = format_report(headers, rows)
        print(text)
        # the smoke gate: the pipeline engaged, stayed reference-identical,
        # and replays bit-for-bit.  The throughput floor is safe to assert
        # even on a shared CI box — the replay runs on simulated time, so
        # the speedup is a pure function of the trace and the cost models.
        for row in rows:
            assert row[-2] == "yes", f"{row[0]}/{row[1]}: outputs diverged"
            assert row[-1] == "yes", f"{row[0]}/{row[1]}: replay not bitwise"
        assert any(row[9] > 0 for row in rows), "no speculation hit"
        for row in rows:
            if row[1] == "adaptive":
                assert row[4] >= 1.2, f"host-bound speedup regressed: {row[4]}"
        return text
    headers, rows = run()
    text = format_report(headers, rows)
    print(text)
    save_result("overlap", text)
    return text


if __name__ == "__main__":
    import sys

    main(sys.argv[1:])
