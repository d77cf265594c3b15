"""The sharded serving front door: multi-loop topologies.

Builds a TreeLSTM, generates one bursty open-loop trace at 2000 rps, and
replays it deterministically against the ``single`` and ``per_device``
loop topologies on the same 4-device group behind a bounded
``shed-oldest`` admission queue.  Prints the throughput/p99 comparison
plus each loop's admission counters — sharding the host lane lifts
throughput, and the sharded loops absorb the burst the single loop sheds.
"""

from repro import CompilerOptions, SimulatedClock, compile_model, reference_run
from repro.models import MODEL_MODULES
from repro.serve import Server, bursty_arrivals
from repro.utils import values_allclose

NUM_REQUESTS = 96
HOST_MODEL = (2.0, 0.75)  # ms/round + ms/request of host work per flush


def main() -> None:
    module = MODEL_MODULES["treelstm"]
    mod, params, size = module.build_for("small")
    requests = module.make_batch(mod, size, NUM_REQUESTS, seed=3)
    reference = reference_run(mod, params, requests)
    model = compile_model(mod, params, CompilerOptions())

    arrivals = bursty_arrivals(2000.0, NUM_REQUESTS, burst=4, seed=4)
    workload = [(at, "trees", req) for at, req in zip(arrivals, requests)]

    print(f"{NUM_REQUESTS} TreeLSTM requests, 2000 rps in bursts of 4\n")
    for topology in ("single", "per_device"):
        server = Server(
            clock=SimulatedClock(),
            device=4,
            topology=topology,
            max_pending=24,
            backpressure="shed-oldest",
        )
        server.add_endpoint("trees", model, policy="adaptive")
        # shed requests stay in the report as failed handles; latency,
        # throughput and outputs fold over the completed ones
        report = server.replay(workload, host_model=HOST_MODEL)["trees"]
        assert all(
            h.failed or values_allclose(h.result(), expected)
            for h, expected in zip(report.handles, reference)
        ), "sharded replay diverged from the eager reference"

        completed = report.num_requests - report.num_failed
        loops = server.summary()["loops"]
        print(
            f"topology={topology:<11} loops={len(loops)} "
            f"completed={completed:>2}/{NUM_REQUESTS} "
            f"throughput={report.throughput_rps:7.1f} rps  "
            f"p99={report.p99_ms:6.2f} ms"
        )
        for name, gauges in sorted(loops.items()):
            print(
                f"  {name:<6} admitted={gauges['admitted']:>2} "
                f"shed={gauges['shed']} stolen_in={gauges['stolen_in']} "
                f"stolen_out={gauges['stolen_out']}"
            )
        print()


if __name__ == "__main__":
    main()
