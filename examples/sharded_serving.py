"""Sharded serving: one model, four simulated devices, placement policies.

Builds a TreeLSTM, replays the same open-loop Poisson trace against a
single device and against a 4-device group under each sharding placement
policy, and prints the throughput/latency comparison plus the group's
per-device balance.  Results are identical under every placement — only
where the batches execute (and what the cross-device transfers cost)
changes.
"""

from repro import CompilerOptions, SimulatedClock, compile_model, reference_run
from repro.devices import DeviceGroup
from repro.models import MODEL_MODULES
from repro.runtime.device import GPUSpec
from repro.serve import Server
from repro.serve.traffic import poisson_arrivals
from repro.utils import values_allclose

NUM_REQUESTS = 24
ARRIVAL_RATE = 800.0  # requests/second on the simulated clock

#: bandwidth/compute-starved edge device: the serving bottleneck is the
#: simulated device, so device-count scaling is visible (see the sharding
#: benchmark notes in the README)
EDGE = GPUSpec(
    name="simulated-laptop",
    launch_overhead_us=8.0,
    api_overhead_us=6.0,
    mem_bandwidth_gbps=4.0,
    peak_gflops=4.0,
    pcie_bandwidth_gbps=6.0,
    memcpy_overhead_us=10.0,
    saturation_flops=5.0e5,
    min_utilization=0.05,
)


def main() -> None:
    module = MODEL_MODULES["treelstm"]
    mod, params, size = module.build_for("small")
    requests = module.make_batch(mod, size, NUM_REQUESTS, seed=3)
    reference = reference_run(mod, params, requests)
    model = compile_model(mod, params, CompilerOptions())
    arrivals = poisson_arrivals(ARRIVAL_RATE, NUM_REQUESTS, seed=4)

    print(f"{NUM_REQUESTS} TreeLSTM requests, Poisson {ARRIVAL_RATE:.0f} rps\n")
    for label, devices, placement in (
        ("1 device", 1, "single"),
        ("4 devices, round_robin", 4, "round_robin"),
        ("4 devices, data_parallel", 4, "data_parallel"),
    ):
        group = DeviceGroup(devices, spec=EDGE, interconnect="nvlink")
        server = Server(device=group, placement=placement, clock=SimulatedClock())
        server.add_endpoint("trees", model, policy="size", n=8)
        report = server.replay(
            [(t, "trees", r) for t, r in zip(arrivals, requests)], continuous=False
        )["trees"]
        ok = all(values_allclose(a, b) for a, b in zip(reference, report.outputs))
        balance = server.summary()["devices"]["balance"]
        print(
            f"{label:<26} throughput {report.throughput_rps:7.1f} rps  "
            f"p99 {report.p99_ms:7.2f} ms  balance {balance:.2f}  "
            f"matches reference: {ok}"
        )


if __name__ == "__main__":
    main()
