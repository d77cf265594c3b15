"""Multi-model serving on the event-loop core: two models, one `Server`.

A TreeLSTM and a BiRNN share one simulated GPU behind named endpoints.
Mixed bursty open-loop traffic replays through the server's
:class:`~repro.serve.loop.ServeLoop` with **continuous batching**: flushed
rounds launch asynchronously onto the device timeline while intake streams
on, partial rounds start the moment each endpoint's deadline policy fires,
and the whole replay is bit-for-bit deterministic (measured host time is
excluded; a fixed host-cost model stands in for it).  The same trace is
also replayed caller-driven — the old submit/poll/flush choreography — to
show what the event loop buys at equal traffic.

Run with: PYTHONPATH=src python examples/serving_server.py
"""

from repro import CompilerOptions, compile_model, reference_run
from repro.models import MODEL_MODULES
from repro.serve import Server, SimulatedClock, bursty_arrivals
from repro.utils import values_allclose

REQUESTS_PER_MODEL = 16
ARRIVAL_RATE = 2000.0  # per endpoint, requests/second
HOST_MODEL = (1.0, 0.25)  # deterministic host ms per round / per request


def build(model_name: str, seed: int):
    module = MODEL_MODULES[model_name]
    mod, params, size = module.build_for("test")
    requests = module.make_batch(mod, size, REQUESTS_PER_MODEL, seed=seed)
    reference = reference_run(mod, params, requests)
    return compile_model(mod, params, CompilerOptions()), requests, reference


def make_server(trees_model, seqs_model) -> Server:
    server = Server(clock=SimulatedClock())
    server.add_endpoint("trees", trees_model, policy="deadline", ms=5.0)
    server.add_endpoint("seqs", seqs_model, policy="deadline", ms=5.0)
    return server


def make_workload(trees_requests, seqs_requests):
    return [
        (t, "trees", req)
        for t, req in zip(
            bursty_arrivals(ARRIVAL_RATE, REQUESTS_PER_MODEL, burst=4, seed=1),
            trees_requests,
        )
    ] + [
        (t, "seqs", req)
        for t, req in zip(
            bursty_arrivals(ARRIVAL_RATE, REQUESTS_PER_MODEL, burst=4, seed=2),
            seqs_requests,
        )
    ]


def main() -> None:
    trees_model, trees_requests, trees_reference = build("treelstm", seed=21)
    seqs_model, seqs_requests, seqs_reference = build("birnn", seed=22)
    workload = make_workload(trees_requests, seqs_requests)

    print("continuous (event loop) vs caller-driven, same trace:\n")
    continuous_server = None
    for mode in ("continuous", "caller"):
        server = make_server(trees_model, seqs_model)
        # both modes run deterministically with the same host-cost model,
        # so the side-by-side isolates the intake choreography
        reports = server.replay(
            workload, continuous=mode == "continuous", host_model=HOST_MODEL
        )
        if mode == "continuous":
            continuous_server = server
        for name, reference in (("trees", trees_reference), ("seqs", seqs_reference)):
            report = reports[name]
            ok = all(
                values_allclose(a, b) for a, b in zip(reference, report.outputs)
            )
            print(
                f"  {mode:<11} {name:<6} {report.num_requests} requests in "
                f"{report.num_flushes} flushes (mean batch "
                f"{report.mean_batch:.1f}), p99 {report.p99_ms:.2f} ms, "
                f"matches reference: {ok}"
            )
        devices = server.summary()["devices"]
        print(f"  {mode:<11} devices: count={devices['count']}\n")

    # per-endpoint lifetime statistics come from the same summary() as ever
    server = continuous_server
    print("per-endpoint summary (continuous replay):")
    full_summary = server.summary()
    for name in server.endpoints:
        summary = full_summary[name]
        print(
            f"  {name:<6} requests={summary['requests']:>3.0f} "
            f"flushes={summary['flushes']:>2.0f} "
            f"mean_batch={summary['mean_batch']:.1f} "
            f"launches={summary['kernel_launches']:.0f} "
            f"device_ms={summary['device_ms']:.2f}"
        )


if __name__ == "__main__":
    main()
