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
from typing import List, Optional, Tuple

from ..serve.traffic import TrafficReport, bursty_arrivals
from .harness import ExperimentScale, current_scale, format_table, publish
from .runner import Row, assert_checks, prepare, replay_row, tag, yes

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


def _columns(label: str, row: Row) -> List:
    """Replay one topology row and fold it into the table's columns; the
    throughput and p99 fold over every endpoint's completed requests."""
    result = replay_row(row)
    handles = [h for report in result.reports.values() for h in report.handles]
    merged = TrafficReport.fold(handles, row.trace[0][0])
    loops = result.server.summary()["loops"]
    return [
        label,
        DEVICES,
        len(loops),
        len(row.trace),
        merged.throughput_rps,
        merged.p99_ms,
        sum(g["stolen_out"] for g in loops.values()),
        sum(g["shed"] + g["expired"] for g in loops.values()),
        yes(result.matches_ref),
        yes(result.deterministic),
    ]


def run(
    scale: Optional[ExperimentScale] = None, quick: bool = False
) -> Tuple[Tuple[str, ...], List[List]]:
    """The topology table (one row per loop topology, same trace)."""
    scale = scale or current_scale()
    n = NUM_REQUESTS.get(scale.name, 160)
    if quick:
        n = min(n, 160)

    compiled, requests, reference = prepare(MODEL, SIZE_NAME, n, scale.seed, scale.seed + 6)
    arrivals = bursty_arrivals(ARRIVAL_RATE, n, burst=BURST, seed=scale.seed + 7)

    def row(trace, topology: str, **topology_args: object) -> Row:
        return Row(
            compiled,
            trace,
            reference,
            "adaptive",
            host_model=HOST_MODEL,
            server_args={
                "device": DEVICES,
                "topology": topology,
                "topology_args": topology_args,
                "max_pending": MAX_PENDING,
                "backpressure": BACKPRESSURE,
            },
        )

    # single-endpoint trace shared by the single and per_device rows
    trace = tag(arrivals, requests)
    rows = {label: row(trace, label) for label in ("single", "per_device")}
    if not quick:
        # affinity routing: requests pinned round-robin to three of the
        # four loops (loop 3 left idle) — backlog skew the cross-loop
        # work-stealing pass rebalances, where least-backlog routing never
        # would
        pinned = [(t, name, inst, {"loop": i % 3}) for i, (t, name, inst) in enumerate(trace)]
        rows["per_device+pin"] = row(pinned, "per_device")
        # per_endpoint needs >= 2 endpoints: alternate the same trace
        # over two replicas of the model, two devices per loop
        alternating = [(t, "ab"[i % 2], inst) for i, (t, _, inst) in enumerate(trace)]
        rows["per_endpoint"] = row(alternating, "per_endpoint")

    table = [_columns(label, spec) for label, spec in rows.items()]
    if quick:
        assert_checks(HEADERS, table)
        col = HEADERS.index("throughput_rps")
        speedup = table[1][col] / table[0][col]
        assert speedup >= 1.3, (
            f"per_device must sustain >= 1.3x single-loop throughput at "
            f"{DEVICES} devices (got {speedup:.2f}x)"
        )
    return HEADERS, table


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
    if args.quick:
        print(text)
        return text
    return publish("multiloop", text)


if __name__ == "__main__":
    import sys

    main(sys.argv[1:])
