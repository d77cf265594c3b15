"""Sharded-front-door benchmark: multi-loop topologies under bursty
overload.

The continuous-batching benchmark (:mod:`repro.experiments.continuous`)
showed the event loop beating caller-driven intake, but it still
serializes every round's host work through **one** loop — at high
request rates the host lane, not the device, is the ceiling.  This
driver measures the sharded serving front door
(:mod:`repro.serve.topology`): the same bursty trace — an order of
magnitude above the continuous benchmark's arrival rate — is replayed
against each loop topology on the same four-device group:

* ``single`` — one loop owns all four devices: every round's host cost
  serializes on one host lane (the baseline the sharding win is measured
  against);
* ``per_device`` — one loop per device-group member: four host lanes run
  concurrently, each feeding its own device, with cross-loop
  work-stealing rebalancing backlog skew;
* ``per_endpoint`` — one loop per model endpoint over a device slice
  (two endpoints here, two devices each).

Traffic is one :func:`repro.serve.traffic.bursty_arrivals` trace behind
a bounded admission queue: under overload the loop sheds the oldest
queued request (``shed-oldest``), and the table reports throughput, p99,
steal and shed counts.

Every row runs **deterministically** on the simulated clock (measured
host wall time replaced by the fixed linear ``HOST_MODEL``): completed
outputs are checked against the eager reference, and each configuration
is replayed twice on a fresh server to verify bit-for-bit identity
(``deterministic`` column).

``--quick`` runs the CI smoke: the single and per_device rows only, with
hard assertions on reference identity, replay determinism and the
sharding speedup (per_device >= 1.3x single-loop throughput at 4
devices).
"""

from __future__ import annotations

import argparse
from typing import Dict, List, Optional, Sequence, Tuple

from ..compiler.options import CompilerOptions
from ..core.api import compile_model, reference_run
from ..serve.clock import SimulatedClock
from ..serve.server import Server
from ..serve.traffic import bursty_arrivals
from ..utils import bitwise_equal
from .harness import (
    ExperimentScale,
    build_model,
    current_scale,
    format_table,
    make_instances,
    save_result,
)

HEADERS = (
    "topology",
    "devices",
    "loops",
    "requests",
    "throughput_rps",
    "p99_ms",
    "stolen",
    "shed",
    "matches_ref",
    "deterministic",
)

MODEL = "treelstm"
SIZE_NAME = "small"
DEVICES = 4

#: arrival rate: 10x the continuous benchmark's 200 rps — the regime where
#: one host lane saturates and sharding pays — in bursts of BURST
ARRIVAL_RATE = 2000.0
BURST = 4
NUM_REQUESTS = {"reduced": 160, "paper": 480}

#: host-cost model per flush (ms/round, ms/request), identical for every
#: topology — the serial host work each loop's lane pays
HOST_MODEL = (2.0, 0.75)

#: intake bound: overload sheds the oldest queued request
MAX_PENDING = 48
BACKPRESSURE = "shed-oldest"


def _replay_once(
    compiled,
    endpoints: Sequence[str],
    workload,
    topology: str,
    topology_args: Optional[Dict] = None,
):
    """One fresh server, one deterministic trace replay; returns the
    server plus handle lists per endpoint."""
    server = Server(
        clock=SimulatedClock(),
        devices=DEVICES,
        topology=topology,
        topology_args=topology_args,
        max_pending=MAX_PENDING,
        backpressure=BACKPRESSURE,
    )
    for name in endpoints:
        server.add_endpoint(name, compiled, policy="adaptive")
    handles = server.run_trace(
        workload, deterministic=True, host_model=HOST_MODEL
    )
    return server, handles


def _measure(server, handles, workload, reference) -> Dict[str, object]:
    """Fold one replay into the table's measurement columns."""
    per_endpoint_idx: Dict[str, List[int]] = {}
    for i, item in enumerate(workload):
        per_endpoint_idx.setdefault(item[1], []).append(i)

    completed = []
    matches = True
    first_arrival = workload[0][0] if workload else 0.0
    for name, hs in handles.items():
        for h, idx in zip(hs, per_endpoint_idx[name]):
            if h.failed:
                continue
            completed.append(h)
            if not bitwise_equal(h.result(), reference[idx]):
                matches = False
    horizon = max(h.stats.completed_at for h in completed)
    throughput = len(completed) / max(1e-9, horizon - first_arrival)
    latencies = sorted(h.stats.latency_ms for h in completed)
    p99 = latencies[min(len(latencies) - 1, int(0.99 * len(latencies)))]

    loops = server.summary()["loops"]
    stolen = sum(g["stolen_out"] for g in loops.values())
    shed = sum(g["shed"] + g["expired"] for g in loops.values())
    return {
        "loops": len(loops),
        "completed": len(completed),
        "throughput": throughput,
        "p99": p99,
        "stolen": stolen,
        "shed": shed,
        "matches": matches,
        "times": [
            [None if h.stats is None else h.stats.completed_at for h in hs]
            for hs in handles.values()
        ],
        "outputs": [
            [None if h.failed else h.result() for h in hs]
            for hs in handles.values()
        ],
    }


def _run_row(
    compiled, endpoints, workload, reference, topology, topology_args=None,
    label=None,
):
    server, handles = _replay_once(
        compiled, endpoints, workload, topology, topology_args
    )
    m = _measure(server, handles, workload, reference)
    server2, handles2 = _replay_once(
        compiled, endpoints, workload, topology, topology_args
    )
    m2 = _measure(server2, handles2, workload, reference)
    deterministic = m["times"] == m2["times"] and bitwise_equal(
        m["outputs"], m2["outputs"]
    )
    row = [
        label or topology,
        DEVICES,
        m["loops"],
        len(workload),
        m["throughput"],
        m["p99"],
        m["stolen"],
        m["shed"],
        "yes" if m["matches"] else "NO",
        "yes" if deterministic else "NO",
    ]
    return row, m


def run(
    scale: Optional[ExperimentScale] = None, quick: bool = False
) -> Tuple[Tuple[str, ...], List[List]]:
    """The topology table (one row per loop topology, same trace)."""
    scale = scale or current_scale()
    n = NUM_REQUESTS.get(scale.name, 160)
    if quick:
        n = min(n, 160)

    mod, params, size = build_model(MODEL, SIZE_NAME, scale.seed)
    requests = make_instances(MODEL, mod, size, n, seed=scale.seed + 6)
    reference = reference_run(mod, params, requests)
    compiled = compile_model(mod, params, CompilerOptions())
    arrivals = bursty_arrivals(ARRIVAL_RATE, n, burst=BURST, seed=scale.seed + 7)

    rows: List[List] = []
    results: Dict[str, Dict] = {}

    # single-endpoint trace shared by the single and per_device rows
    workload = [(at, "m", inst) for at, inst in zip(arrivals, requests)]
    for topology in ("single", "per_device"):
        row, m = _run_row(compiled, ["m"], workload, reference, topology)
        rows.append(row)
        results[topology] = m

    if not quick:
        # affinity routing: requests pinned round-robin to three of the
        # four loops (loop 3 left idle) — backlog skew the cross-loop
        # work-stealing pass rebalances, where least-backlog routing never
        # would
        pinned = [
            (at, "m", inst, {"loop": i % 3})
            for i, (at, inst) in enumerate(zip(arrivals, requests))
        ]
        row, m = _run_row(
            compiled, ["m"], pinned, reference, "per_device",
            label="per_device+pin",
        )
        rows.append(row)
        results["per_device+pin"] = m

        # per_endpoint needs >= 2 endpoints: alternate the same trace
        # over two replicas of the model, two devices per loop
        workload2 = [
            (at, "ab"[i % 2], inst)
            for i, (at, inst) in enumerate(zip(arrivals, requests))
        ]
        row, m = _run_row(
            compiled, ["a", "b"], workload2, reference, "per_endpoint"
        )
        rows.append(row)
        results["per_endpoint"] = m

    if quick:
        single, multi = results["single"], results["per_device"]
        assert single["matches"] and multi["matches"], (
            "sharded replay diverged from the eager reference"
        )
        speedup = multi["throughput"] / single["throughput"]
        assert speedup >= 1.3, (
            f"per_device must sustain >= 1.3x single-loop throughput at "
            f"{DEVICES} devices (got {speedup:.2f}x)"
        )
        col = HEADERS.index("deterministic")
        assert all(r[col] == "yes" for r in rows), (
            "multi-loop replay must be bit-for-bit deterministic"
        )
    return HEADERS, rows


def format_report(headers: Tuple[str, ...], rows: List[List]) -> str:
    return format_table(
        headers,
        rows,
        title=(
            "Sharded front door: bursty overload "
            f"({ARRIVAL_RATE:.0f} rps in bursts of {BURST}, {MODEL}/{SIZE_NAME} "
            f"on {DEVICES} devices; {BACKPRESSURE} admission at "
            f"max_pending={MAX_PENDING}, host model "
            f"{HOST_MODEL[0]}ms/round + {HOST_MODEL[1]}ms/request; "
            "deterministic simulated time)"
        ),
    )


def main(argv: Optional[List[str]] = None) -> str:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.multiloop",
        description="Sharded serving front door: loop topologies under "
        "bursty overload.",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke: single + per_device rows only, with hard "
        "assertions on reference identity, determinism and the >=1.3x "
        "sharding speedup",
    )
    args = parser.parse_args(list(argv) if argv is not None else [])
    headers, rows = run(quick=args.quick)
    text = format_report(headers, rows)
    print(text)
    if not args.quick:
        save_result("multiloop", text)
    return text


if __name__ == "__main__":
    import sys

    main(sys.argv[1:])
