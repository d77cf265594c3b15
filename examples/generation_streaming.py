"""Streaming autoregressive generation through the serving stack.

Every live sequence re-enters the round former once per token, so decode
steps of many sequences batch into the same rounds (continuous batching).
This example drives :class:`repro.generate.GenerationSession` over a
`Server` endpoint on both clocks:

* **simulated** (`generate()` on a `SimulatedClock` server): an open-loop
  prompt trace decoded deterministically through the server's trace
  replay, with per-sequence streaming callbacks, a mid-generation
  cancellation, and the per-step SLO metrics (TTFS, inter-step p99) the
  serving dashboards watch;
* **wall clock** (`submit()` behind `Server.run()`): tokens consumed live
  off `handle.stream()` while the serve loop flushes rounds on real time.
  The loop thread admits each sequence's next step from the done callback
  of the step before, and runs `on_token` callbacks there too, so a
  blocking callback delays the loop.

Every trajectory is bitwise-identical to the eager unbatched reference
loop — batching the decode cohort changes no token.

Run with: PYTHONPATH=src python examples/generation_streaming.py
"""

import numpy as np

from repro import CompilerOptions, compile_model
from repro.generate import (
    GenerationCancelled,
    GenerationRequest,
    GenerationSession,
    reference_generate,
)
from repro.models import MODEL_MODULES
from repro.serve import Server, SimulatedClock

MODEL = "declm_gru"
NUM_SEQUENCES = 6
MAX_NEW_TOKENS = 8


def build():
    module = MODEL_MODULES[MODEL]
    mod, params, size = module.build_for("test")
    compiled = compile_model(mod, params, CompilerOptions())
    return module, mod, params, size, compiled


def make_requests(vocab, seed=7):
    rng = np.random.default_rng(seed)
    t = 0.0
    requests = []
    for _ in range(NUM_SEQUENCES):
        t += float(rng.exponential(0.0004))
        prompt = [int(tok) for tok in rng.integers(0, vocab, rng.integers(1, 4))]
        requests.append(
            GenerationRequest(prompt, max_new_tokens=MAX_NEW_TOKENS, arrival=t)
        )
    return requests


def simulated_demo(module, mod, params, size, compiled):
    print(f"=== simulated: {NUM_SEQUENCES} sequences, continuous batching ===")
    requests = make_requests(size.classes)
    reference = [
        reference_generate(mod, params, module, size, r.prompt, r.max_new_tokens)
        for r in requests
    ]

    # stream sequence 0's tokens as their rounds complete, and cancel
    # sequence 1 after its second token — round-mates are unaffected
    requests[0].on_token = lambda h, tok, i, at: print(
        f"  seq0 token[{i}] = {tok:2d}  at t={at * 1e3:.3f}ms"
    )
    requests[1].on_token = (
        lambda h, tok, i, at: h.cancel() if i == 1 else None
    )

    server = Server(clock=SimulatedClock())
    session = server.add_endpoint("decoder", compiled, policy="adaptive").session
    gen = GenerationSession(server=server, endpoint="decoder", model=module, size=size)
    handles = gen.generate(requests, host_model=(0.2, 0.05))

    for i, (h, ref) in enumerate(zip(handles, reference)):
        try:
            tokens = h.result()
            tag = "matches reference" if tokens == ref else "MISMATCH"
        except GenerationCancelled:
            tokens = h.tokens
            tag = f"cancelled after {len(tokens)} tokens (prefix of reference)"
            assert tokens == ref[: len(tokens)]
        print(f"  seq{i}: {tokens}  [{tag}]")

    m = gen.metrics
    print(
        f"  rounds={session.num_flushes} "
        f"mean_batch={session.requests_flushed / session.num_flushes:.1f}"
    )
    print(
        f"  TTFS p50={m.ttfs_p50_ms:.3f}ms p99={m.ttfs_p99_ms:.3f}ms "
        f"inter-step p99={m.inter_step_p99_ms:.3f}ms\n"
    )


def wall_clock_demo(module, mod, params, size, compiled):
    print("=== wall clock: live streaming through Server.run() ===")
    reference = reference_generate(mod, params, module, size, [3, 1], 6)
    server = Server()
    server.add_endpoint("decoder", compiled, policy="size", n=1)
    with server.run():
        with GenerationSession(
            server=server, endpoint="decoder", model=module, size=size
        ) as gen:
            handle = gen.submit(GenerationRequest([3, 1], max_new_tokens=6))
            streamed = []
            for tok in handle.stream(timeout=10.0):
                streamed.append(tok)
                print(f"  streamed token {tok}")
        assert streamed == reference
        summary = server.summary()["decoder"]
        print(
            f"  gen_requests={summary['gen_requests']} "
            f"gen_tokens={summary['gen_tokens']} "
            f"ttfs_p50={summary['ttfs_p50_ms']:.3f}ms"
        )
    print("  trajectory matches the eager reference loop bitwise")


def main():
    module, mod, params, size, compiled = build()
    simulated_demo(module, mod, params, size, compiled)
    wall_clock_demo(module, mod, params, size, compiled)


if __name__ == "__main__":
    main()
