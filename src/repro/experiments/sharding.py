"""Sharding benchmark: serving throughput vs device count per placement.

The serving benchmark (:mod:`repro.experiments.serving`) measures *when* to
flush; this one measures *where* the flushed round executes.  Open-loop
Poisson traffic is replayed against a TreeLSTM serving session backed by a
:class:`~repro.devices.group.DeviceGroup` of 1/2/4 simulated devices under
every built-in placement policy:

* ``single`` — everything on device 0 (the no-sharding baseline: extra
  devices sit idle, so throughput must not move);
* ``round_robin`` — request-level sharding (instance ``i`` on device
  ``i % N``);
* ``data_parallel`` — per-batch splitting driven by the device cost model
  (learning per-block work from observed launches).

The sweep runs in a *device-bound* regime: paper-"small" model sizes on a
deliberately compute-starved edge-class accelerator spec, so the serving
bottleneck is simulated device time rather than the Python host overhead of
this reproduction — device-count scaling is what is being measured, and it
only exists where the device is the bottleneck (a datacenter GPU at toy
sizes is launch-overhead-bound, and sharding cannot shard launch overhead).
The replay is deterministic: measured host wall time is replaced by a fixed
linear host-cost model (``HOST_MODEL``), so the table reproduces
byte-for-byte.
Cross-device operand traffic is priced over an NVLink-class interconnect.

Reported per configuration: throughput, p50/p99 end-to-end latency on the
simulated clock, mean batch size, kernel launches, peer transfers, the
group's busy-time balance, and the throughput speedup vs the same policy's
single-device run.  Every configuration's outputs are checked against the
eager reference — sharding must change where work runs and what transfers
cost, never results.
"""

from __future__ import annotations

import argparse
from typing import Dict, List, Optional, Sequence, Tuple

from ..runtime.device import GPUSpec
from ..serve.traffic import poisson_arrivals
from .harness import ExperimentScale, current_scale, format_table, publish
from .runner import Row, prepare, replay_row, tag, yes

HEADERS = (
    "model",
    "placement",
    "devices",
    "throughput_rps",
    "speedup",
    "p50_ms",
    "p99_ms",
    "mean_batch",
    "launches",
    "peer_transfers",
    "balance",
    "active_devices",
    "matches_ref",
)

PLACEMENTS = ("single", "round_robin", "data_parallel")
DEVICE_COUNTS = (1, 2, 4)

MODEL = "treelstm"
#: the sweep uses the paper's "small" model size even at reduced scale:
#: device-count scaling needs real per-instance device work to shard
SIZE_NAME = "small"

#: compute-starved edge-class accelerator: ~4 GFLOPS peak with modest
#: bandwidth, so a flushed round's simulated device time dominates the
#: host-side Python overhead by an order of magnitude and the device — not
#: this reproduction's Python host — is the serving bottleneck (which also
#: keeps the measured speedups stable on busy CI hosts)
EDGE_SPEC = GPUSpec(
    name="simulated-edge",
    launch_overhead_us=5.0,
    api_overhead_us=4.0,
    mem_bandwidth_gbps=4.0,
    peak_gflops=4.0,
    pcie_bandwidth_gbps=4.0,
    memcpy_overhead_us=7.0,
    saturation_flops=5.0e4,
    min_utilization=0.05,
)

INTERCONNECT = "nvlink"

#: open-loop arrival rate (requests/second on the simulated clock), set
#: well above the single-device service rate so the sweep measures serving
#: capacity (open-loop saturation), and the per-scale trace length
ARRIVAL_RATE = {"reduced": 1600.0, "paper": 1600.0}
NUM_REQUESTS = {"reduced": 48, "paper": 96}
FLUSH_SIZE = 16
#: deterministic host-cost model (ms/round, ms/request) standing in for the
#: measured Python host share — the ``continuous.txt`` model (same
#: ``EDGE_SPEC``, same "small" sizes) — so the table is a pure function of
#: the trace and the device cost model and reproduces byte-for-byte
HOST_MODEL = (2.0, 0.75)


def _busy_balance(history) -> Tuple[float, int]:
    """Busy-time balance over the *participating* devices plus how many
    participated, accumulated across the replay's flushes.

    Balance is min/max cumulative busy time over members that did any work
    (1.0 = the members sharing the work share it perfectly).  Members a
    placement left idle are reported through the active count rather than
    by zeroing the ratio — ``single`` on a 4-group is one perfectly
    balanced active device, not a 0.00-balance group.
    """
    busy: Dict[int, float] = {}
    for stats in history:
        for d in stats.per_device:
            idx = int(d.get("device", 0))
            busy[idx] = busy.get(idx, 0.0) + d.get("total_device_us", 0.0)
    active = [b for b in busy.values() if b > 0.0]
    if len(active) <= 1:
        return 1.0, len(active)
    return min(active) / max(active), len(active)


def run(
    scale: Optional[ExperimentScale] = None,
    device_counts: Sequence[int] = DEVICE_COUNTS,
) -> Tuple[Tuple[str, ...], List[List]]:
    """The device-scaling table (one row per placement x device count).

    Device counts are swept in ascending order and each placement's
    ``speedup`` column is relative to its own run at the *smallest* swept
    count (1 in the default sweep).
    """
    scale = scale or current_scale()
    n = NUM_REQUESTS.get(scale.name, 48)
    rate = ARRIVAL_RATE.get(scale.name, 1600.0)
    device_counts = tuple(sorted(set(device_counts)))

    compiled, requests, reference = prepare(MODEL, SIZE_NAME, n, scale.seed, scale.seed + 3)
    trace = tag(poisson_arrivals(rate, n, seed=scale.seed), requests)
    rows: List[List] = []
    for placement in PLACEMENTS:
        base_throughput: Optional[float] = None
        for devices in device_counts:
            result = replay_row(
                Row(
                    compiled,
                    trace,
                    reference,
                    "size",
                    {"n": FLUSH_SIZE},
                    continuous=False,
                    host_model=HOST_MODEL,
                    server_args={
                        "device": devices,
                        "gpu_spec": EDGE_SPEC,
                        "interconnect": INTERCONNECT,
                        "placement": placement,
                    },
                )
            )
            report = result.reports["m"]
            history = result.server.endpoint("m").session.history
            peer = sum(s.device.get("num_peer_transfers", 0) for s in history)
            if base_throughput is None:
                base_throughput = report.throughput_rps
            balance, active = _busy_balance(history)
            rows.append(
                [
                    MODEL,
                    placement,
                    devices,
                    report.throughput_rps,
                    report.throughput_rps / base_throughput,
                    report.p50_ms,
                    report.p99_ms,
                    report.mean_batch,
                    report.kernel_launches,
                    peer,
                    balance,
                    active,
                    yes(result.matches_ref),
                ]
            )
    return HEADERS, rows


def format_report(headers: Tuple[str, ...], rows: List[List]) -> str:
    return format_table(
        headers,
        rows,
        title=(
            "Sharding: open-loop Poisson traffic vs device count per placement "
            f"policy ({SIZE_NAME}-size models on a {EDGE_SPEC.name} group, "
            f"{INTERCONNECT} interconnect, size({FLUSH_SIZE}) flushes; "
            f"deterministic simulated time, host model {HOST_MODEL[0]}ms/round "
            f"+ {HOST_MODEL[1]}ms/request; "
            "speedup is each placement's throughput over its own run at the "
            "smallest swept device count)"
        ),
    )


def main(argv: Optional[Sequence[str]] = None) -> str:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.sharding",
        description="Device-scaling serving sweep (placement-policy matrix).",
    )
    parser.add_argument(
        "--devices",
        type=int,
        nargs="+",
        default=None,
        metavar="N",
        help="device counts to sweep (default: 1 2 4); the 1-device "
        "baseline is always included so the speedup column stays "
        "comparable across invocations — --devices 2 sweeps {1, 2}",
    )
    args = parser.parse_args(list(argv) if argv is not None else [])
    counts: Sequence[int] = DEVICE_COUNTS
    if args.devices is not None:
        # the 1-device baseline is always swept so "speedup" means the same
        # thing however the counts are given ("--devices 2" = smoke {1, 2})
        counts = tuple(sorted({1, *args.devices}))
    return publish("sharding", format_report(*run(device_counts=counts)))


if __name__ == "__main__":
    import sys

    main(sys.argv[1:])
