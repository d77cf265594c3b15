"""Autoregressive decode benchmark: per-request vs continuously batched.

Generation stresses exactly the regime ACROBAT's cross-request batching is
for: every live sequence re-enters the round former once per token, so a
cohort of live sequences offers a fresh batching opportunity *every step*.
A prompt is one step too: the decoder folds over its tokens, so its prefill
chain runs inside one round, batched by depth with the round's other
chains (one launch per depth, where a decode step is depth 0 alone).
This table drives the same open-loop prompt trace through
:class:`repro.generate.GenerationSession` in two modes:

* ``per_request`` — a ``size(1)`` flush policy: every step is its own
  round, serialized on the device (the no-cross-request baseline — what a
  naive serving stack does to autoregressive traffic);
* ``continuous`` — the ``adaptive`` policy under the generation driver's
  iteration-level scheduling: decode steps of all live sequences (and any
  fresh prefills) land in one round per step cohort.

Reported per model (tanh-RNN and GRU decoder cells): time-to-first-step
percentiles (arrival → first emitted token), inter-step p99 (the decode
SLO), token throughput, mean round size and kernel launches per token.
Every row is **bitwise reference-identical** — each sequence's token
trajectory equals the eager unbatched :func:`repro.generate.reference_generate`
loop exactly — and **replay-deterministic**: the same trace re-run must
reproduce every token and every timestamp bit-for-bit on the simulated
clock.  :func:`run` also asserts that every sequence rode exactly one round
per emitted token (``GenerationStats.steps == tokens``): a prompt adds no
round of its own.
"""

from __future__ import annotations

import argparse
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..compiler.options import CompilerOptions
from ..core.api import compile_model
from ..generate import GenerationRequest, GenerationSession, reference_generate
from ..models import MODEL_MODULES
from ..serve.clock import SimulatedClock
from ..serve.server import Server
from .harness import (
    ExperimentScale,
    build_model,
    current_scale,
    format_table,
    publish,
)
from .runner import assert_checks, replay_twice, yes

HEADERS = (
    "model",
    "mode",
    "ttfs_p50_ms",
    "ttfs_p99_ms",
    "inter_p99_ms",
    "tok_per_s",
    "mean_batch",
    "kern_per_tok",
    "matches_ref",
    "deterministic",
)

MODELS = ("declm", "declm_gru")

MODES: Tuple[Tuple[str, str, Dict], ...] = (
    ("per_request", "size", {"n": 1}),
    ("continuous", "adaptive", {}),
)

SIZE_NAME = "small"

NUM_SEQUENCES = {"reduced": 16, "paper": 32}
MAX_NEW_TOKENS = {"reduced": 12, "paper": 24}

#: mean inter-arrival gap of the prompt trace (seconds): short enough that
#: many sequences decode concurrently — the cohort continuous batching rides
ARRIVAL_GAP_S = 0.0004

#: deterministic host cost charged per flush: (per_round_ms, per_request_ms)
HOST_MODEL = (0.2, 0.05)


def _make_requests(
    vocab: int, n: int, max_new: int, seed: int
) -> List[GenerationRequest]:
    """Deterministic open-loop prompt trace: exponential inter-arrival
    gaps, random prompt lengths 1-4, random prompt tokens."""
    rng = np.random.default_rng(seed)
    t = 0.0
    out = []
    for _ in range(n):
        t += float(rng.exponential(ARRIVAL_GAP_S))
        length = int(rng.integers(1, 5))
        prompt = [int(tok) for tok in rng.integers(0, vocab, length)]
        out.append(
            GenerationRequest(prompt, max_new_tokens=max_new, arrival=t)
        )
    return out


def _snapshot(handles) -> List[Tuple]:
    """Everything a replay must reproduce bit-for-bit: tokens and the full
    per-sequence timing."""
    return [
        (
            tuple(h.tokens),
            h.stats.first_token_at,
            h.stats.finished_at,
            tuple(h.stats.inter_step_ms),
            h.stats.status,
        )
        for h in handles
    ]


def _generate(compiled, model_module, size, requests_spec, policy, policy_args):
    server = Server(clock=SimulatedClock())
    session = server.add_endpoint("decoder", compiled, policy, **policy_args).session
    gen = GenerationSession(server=server, endpoint="decoder", model=model_module, size=size)
    # fresh GenerationRequest objects per run: handles and stream state are
    # single-use
    requests = [
        GenerationRequest(list(r.prompt), max_new_tokens=r.max_new_tokens, arrival=r.arrival)
        for r in requests_spec
    ]
    handles = gen.generate(requests, host_model=HOST_MODEL)
    return handles, session, gen


def run(
    scale: Optional[ExperimentScale] = None, models: Tuple[str, ...] = MODELS
) -> Tuple[Tuple[str, ...], List[List]]:
    """The generation table (one row per decoder cell x serving mode)."""
    scale = scale or current_scale()
    n = NUM_SEQUENCES[scale.name]
    max_new = MAX_NEW_TOKENS[scale.name]

    rows: List[List] = []
    for model_name in models:
        module = MODEL_MODULES[model_name]
        mod, params, size = build_model(model_name, SIZE_NAME, scale.seed)
        requests = _make_requests(size.classes, n, max_new, scale.seed + 11)
        reference = [
            reference_generate(
                mod, params, module, size, r.prompt, r.max_new_tokens
            )
            for r in requests
        ]
        compiled = compile_model(mod, params, CompilerOptions())

        for label, policy, policy_args in MODES:
            (handles, session, gen), deterministic = replay_twice(
                lambda: _generate(compiled, module, size, requests, policy, policy_args),
                lambda run: _snapshot(run[0]),
            )
            matches = [h.result() for h in handles] == reference
            extra = [
                (h.request.prompt, h.stats.steps, h.stats.tokens)
                for h in handles
                if h.stats.steps != h.stats.tokens
            ]
            assert not extra, f"{model_name}/{label}: rounds beyond one per token: {extra}"

            tokens = sum(len(h.tokens) for h in handles)
            makespan = max(h.stats.finished_at for h in handles) - min(
                r.arrival for r in requests
            )
            ttfs = [h.stats.ttfs_ms for h in handles]
            flushes = session.num_flushes
            rows.append(
                [
                    model_name,
                    label,
                    float(np.percentile(ttfs, 50)),
                    float(np.percentile(ttfs, 99)),
                    gen.metrics.inter_step_p99_ms,
                    tokens / makespan if makespan > 0 else 0.0,
                    session.requests_flushed / flushes if flushes else 0.0,
                    session.total_kernel_calls / max(1, tokens),
                    yes(matches),
                    yes(deterministic),
                ]
            )
    return HEADERS, rows


def format_report(headers: Tuple[str, ...], rows: List[List]) -> str:
    return format_table(
        headers,
        rows,
        title=(
            "Autoregressive decode: per-request vs continuously batched "
            f"({SIZE_NAME}-size decoder cells; deterministic simulated time, "
            f"host model {HOST_MODEL[0]}ms/round + {HOST_MODEL[1]}ms/request; "
            "every trajectory bitwise-identical to the eager reference loop)"
        ),
    )


def main(argv: Optional[List[str]] = None) -> str:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.generation",
        description="Decode-cohort batching: TTFS and inter-step SLOs for "
        "per-request vs continuous generation.",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke: one decoder cell, asserts reference identity, one "
        "round per emitted token, bitwise replay determinism and the "
        "continuous TTFS win; no result file",
    )
    args = parser.parse_args(list(argv) if argv is not None else [])
    if args.quick:
        headers, rows = run(models=("declm",))
        text = format_report(headers, rows)
        print(text)
        by_mode = {row[1]: row for row in rows}
        assert_checks(headers, rows)
        # the headline: batching the decode cohort must beat one-round-per-
        # step on both first-token latency and throughput.  Safe to assert
        # on shared CI — simulated time is a pure function of the trace.
        ttfs_win = by_mode["per_request"][2] / by_mode["continuous"][2]
        assert ttfs_win >= 1.2, f"continuous TTFS win regressed: {ttfs_win:.2f}x"
        tput_win = by_mode["continuous"][5] / by_mode["per_request"][5]
        assert tput_win >= 1.2, f"continuous throughput win regressed: {tput_win:.2f}x"
        return text
    return publish("generation", format_report(*run()))


if __name__ == "__main__":
    import sys

    main(sys.argv[1:])
