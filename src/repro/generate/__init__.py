"""Autoregressive generation: per-step re-batching over the serving stack.

Generation turns ACROBAT's cross-request batching into a loop: every live
sequence re-enters the round former once per token, so decode steps of many
sequences — and fresh prefills — batch into the same rounds through the
normal scheduler → placement → memory-planner path.

* :class:`GenerationSession` — the step driver: decode steps as events of
  the one simulated driver, :class:`~repro.serve.sim.TraceDriver`
  (:meth:`~GenerationSession.generate`), or a wall-clock pump behind a
  running :class:`~repro.serve.server.Server`
  (:meth:`~GenerationSession.submit`), both running one per-step handler;
* :class:`GenerationRequest` / :class:`GenerationHandle` — prompt,
  stopping rules (EOS / ``max_new_tokens``), streaming (``stream()`` /
  ``on_token``), cancellation and deadlines at round-boundary granularity;
* :class:`GenerationMetrics` — per-step SLO aggregates (TTFS, inter-step
  p99), surfaced through ``Endpoint.summary()``;
* :func:`reference_generate` — the eager unbatched twin every batched
  trajectory must match bitwise.

The decoder-step models live in :mod:`repro.models.declm` (tanh-RNN and
GRU cells); ``experiments/generation.py`` benchmarks per-request vs
continuously batched decoding over them.
"""

from .request import (
    GenerationCancelled,
    GenerationExpired,
    GenerationHandle,
    GenerationMetrics,
    GenerationRequest,
    GenerationStats,
)
from .session import GenerationSession, reference_generate

__all__ = [
    "GenerationCancelled",
    "GenerationExpired",
    "GenerationHandle",
    "GenerationMetrics",
    "GenerationRequest",
    "GenerationSession",
    "GenerationStats",
    "reference_generate",
]
