"""Autoregressive generation: per-step re-batching over the serving stack.

Generation turns ACROBAT's cross-request batching into a loop: every live
sequence re-enters the round former once per token, so decode steps of many
sequences — and fresh prefills — batch into the same rounds through the
normal scheduler → placement → memory-planner path.  A prefill is one step:
the decoder folds over the prompt's tokens inside the round, its chain
batched by depth with the other prompts'.

* :class:`GenerationSession` — the step driver over one
  :class:`~repro.serve.server.Server` endpoint, one per-step handler on
  both clocks: decode steps as scheduled calls of ``Server.replay``
  (:meth:`~GenerationSession.generate`), or admitted by the running
  serve loop's thread from each predecessor's done callback
  (:meth:`~GenerationSession.submit`, where ``on_token`` runs on that
  thread too);
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
