"""Policy-driven serving: one model behind one ``Server`` endpoint.

Simulates a serving scenario: single TreeLSTM requests arrive as open-loop
Poisson traffic, the endpoint's persistent session accumulates them, and a
*flush policy* decides when the backlog executes as one cross-request
batched round.  Compare the kernel launches against per-request execution — the
amortization is where the serving-path speedup comes from — and note the
latency/throughput tradeoff each policy picks.

Everything replays caller-driven on a simulated clock (``Server.replay``),
so deadline semantics are exact, the numbers are the same on every run,
and the whole sweep takes milliseconds of real time.

Run with: PYTHONPATH=src python examples/serving_session.py
"""

from repro import CompilerOptions, compile_model
from repro.models import MODEL_MODULES
from repro.serve import Server, SimulatedClock, poisson_arrivals

NUM_REQUESTS = 24
ARRIVAL_RATE = 2500.0  # requests/second

POLICIES = (
    ("per_request", "size", {"n": 1}),
    ("size(8)", "size", {"n": 8}),
    ("deadline(5ms)", "deadline", {"ms": 5.0}),
    ("adaptive", "adaptive", {}),
)


def replay(model, trace, policy, **args):
    """Replay ``trace`` on a fresh one-endpoint server under ``policy``."""
    server = Server(clock=SimulatedClock())
    server.add_endpoint("m", model, policy=policy, **args)
    return server.replay(trace, continuous=False)["m"]


def main() -> None:
    module = MODEL_MODULES["treelstm"]
    mod, params, size = module.build_for("test")
    requests = module.make_batch(mod, size, NUM_REQUESTS, seed=11)
    arrivals = poisson_arrivals(ARRIVAL_RATE, NUM_REQUESTS, seed=0)
    trace = [(t, "m", request) for t, request in zip(arrivals, requests)]

    model = compile_model(mod, params, CompilerOptions())

    print(f"{NUM_REQUESTS} requests, Poisson arrivals at {ARRIVAL_RATE:.0f} req/s\n")
    print(f"{'policy':<14} {'mean batch':>10} {'launches':>9} {'p50 ms':>7} "
          f"{'p99 ms':>7} {'req/s':>7}")
    base_launches = None
    for label, policy, args in POLICIES:
        report = replay(model, trace, policy, **args)
        if label == "per_request":
            base_launches = report.kernel_launches
        print(
            f"{label:<14} {report.mean_batch:>10.1f} {report.kernel_launches:>9} "
            f"{report.p50_ms:>7.2f} {report.p99_ms:>7.2f} "
            f"{report.throughput_rps:>7.0f}"
        )

    # per-request observability: every handle carries its own stats
    report = replay(model, trace, "deadline", ms=5.0)
    handle = report.handles[0]
    stats = handle.stats
    print(f"\nfirst request under deadline(5ms): queued {stats.queue_ms:.2f} ms, "
          f"executed {stats.execute_ms:.2f} ms in a batch of {stats.batch_size} "
          f"({stats.launch_share:.1f} launches/request, flushed by "
          f"{stats.flush_reason!r})")
    reduction = base_launches / report.kernel_launches
    print(f"launch reduction vs per-request execution: {reduction:.1f}x")

    # inside one flush, the memory planner decides per batched operand
    # whether it already sits contiguously in a device arena (zero-copy) or
    # is gathered by the kernel itself (gather fusion, section 5.2)
    session = model.serve("size", n=8)
    for request in requests[:8]:
        session.submit(request)
    memory = session.last_stats.memory
    print(f"one flush of 8 requests: {memory['contiguous']} contiguous and "
          f"{memory['fused_gather']} fused-gather operands "
          f"({memory['gather_segments']} gathered source arenas)")


if __name__ == "__main__":
    main()
