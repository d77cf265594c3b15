"""Generation-level requests, handles and per-step SLO metrics.

A generation request is a *sequence* of serving requests: one per decode
step, each re-entering the round former.  The lifecycle therefore lives
above :class:`~repro.serve.request.RequestHandle`:

* :class:`GenerationRequest` — prompt, stopping rule (``max_new_tokens`` /
  EOS), arrival time, optional absolute deadline and streaming callback;
* :class:`GenerationHandle` — future-style result (the token list), a
  :meth:`~GenerationHandle.stream` iterator delivering tokens as their
  rounds complete, :meth:`~GenerationHandle.cancel`, and per-sequence
  :class:`GenerationStats`;
* :class:`GenerationMetrics` — the aggregate SLO view serving dashboards
  watch: time-to-first-step (TTFS, arrival → first emitted token) and
  inter-step gap percentiles; attached to the driving
  :class:`~repro.serve.session.InferenceSession` so ``Endpoint.summary()``
  reports it.

Cancellation and expiry fail the handle with :class:`GenerationCancelled` /
:class:`GenerationExpired` (subclasses of the serve-layer exceptions, so
``except RequestCancelled`` catches both); partial tokens stay readable on
:attr:`GenerationHandle.tokens`.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Iterator, List, Optional

import numpy as np

from ..serve.request import RequestCancelled, RequestExpired, RequestHandle


class GenerationCancelled(RequestCancelled):
    """The sequence was cancelled; it was dropped at the next round
    boundary and emitted no further tokens."""


class GenerationExpired(RequestExpired):
    """The sequence's deadline passed; it was dropped at the next round
    boundary and emitted no further tokens."""


@dataclass
class GenerationRequest:
    """One autoregressive sequence to generate.

    ``prompt`` must be non-empty: the first step folds over all of it and
    emits the first generated token (that step's completion is the TTFS
    mark).
    ``deadline`` is an absolute clock timestamp; a sequence still live when
    it passes is dropped at the next round boundary.  ``on_token(handle,
    token, index, at)`` streams each emitted token as its round completes
    — the handle comes first so a callback can cancel its own sequence.
    """

    prompt: List[int]
    max_new_tokens: int = 16
    arrival: float = 0.0
    deadline: Optional[float] = None
    on_token: Optional[Callable[["GenerationHandle", int, int, float], Any]] = None

    def __post_init__(self) -> None:
        if not self.prompt:
            raise ValueError("generation needs a non-empty prompt")
        if self.max_new_tokens < 1:
            raise ValueError("max_new_tokens must be >= 1")


@dataclass
class GenerationStats:
    """Per-sequence generation statistics."""

    #: arrival timestamp of the generation request
    submitted_at: float = 0.0
    #: completion timestamp of the round that emitted the first token
    first_token_at: Optional[float] = None
    #: timestamp at which the sequence left the system (done or dropped)
    finished_at: Optional[float] = None
    #: serving rounds this sequence rode: one per emitted token (the first
    #: also folded the whole prompt), plus the step a dropped sequence was
    #: dropped at, when that step completed
    steps: int = 0
    #: generated tokens emitted (includes EOS when generation hit it)
    tokens: int = 0
    #: gaps between consecutive token emissions (ms) — the inter-step SLO
    inter_step_ms: List[float] = field(default_factory=list)
    #: "done" / "cancelled" / "expired" / "failed"
    status: str = "pending"

    @property
    def ttfs_ms(self) -> Optional[float]:
        """Time-to-first-step: arrival → first emitted token (ms)."""
        if self.first_token_at is None:
            return None
        return max(0.0, self.first_token_at - self.submitted_at) * 1e3


class GenerationHandle:
    """Future-style handle for one generating sequence.

    Tokens accumulate in :attr:`tokens` as their rounds complete;
    :meth:`result` waits for the full sequence, :meth:`stream` iterates
    tokens as they arrive (both thread-safe — on the wall clock the serve
    loop's thread emits while consumers wait)."""

    def __init__(self, request: GenerationRequest) -> None:
        self.request = request
        self.submitted_at = request.arrival
        #: tokens emitted so far (live view; do not mutate)
        self.tokens: List[int] = []
        self.done = False
        self.error: Optional[BaseException] = None
        self.stats = GenerationStats(submitted_at=request.arrival)
        self._cond = threading.Condition()
        self._cancel_requested = False
        self._last_emit_at: Optional[float] = None
        #: the pending step :meth:`cancel` withdraws from its round — set
        #: only by the simulated driver, whose thread runs every callback
        #: (on the wall clock the loop thread owns the session, and drops a
        #: cancelled sequence when its step completes)
        self._step: Optional[RequestHandle] = None

    # -- consumption -----------------------------------------------------------
    def result(self, timeout: Optional[float] = None) -> List[int]:
        """The full generated token list; blocks until the sequence
        finishes (raises its failure — e.g. :class:`GenerationCancelled` —
        when it was dropped)."""
        with self._cond:
            if not self._cond.wait_for(lambda: self.done, timeout=timeout):
                raise TimeoutError(f"generation not finished within {timeout}s")
        if self.error is not None:
            raise self.error
        return list(self.tokens)

    def stream(self, timeout: Optional[float] = None) -> Iterator[int]:
        """Yield tokens as their rounds complete, ending when the sequence
        finishes.  A dropped sequence raises its failure after the partial
        tokens have been yielded.  ``timeout`` bounds each wait."""
        i = 0
        while True:
            with self._cond:
                if not self._cond.wait_for(
                    lambda: len(self.tokens) > i or self.done, timeout=timeout
                ):
                    raise TimeoutError(f"no token within {timeout}s")
                available = len(self.tokens)
                finished = self.done
            while i < available:
                yield self.tokens[i]
                i += 1
            if finished and i >= available:
                if self.error is not None:
                    raise self.error
                return

    @property
    def failed(self) -> bool:
        return self.done and self.error is not None

    # -- lifecycle -------------------------------------------------------------
    def cancel(self) -> bool:
        """Request cancellation; the driver drops the sequence at the next
        round boundary (its pending step is withdrawn before the round
        forms when possible).  Returns False once the sequence already
        finished."""
        with self._cond:
            if self.done:
                return False
            self._cancel_requested = True
            step = self._step
        if step is not None:
            step.cancel()
        return True

    @property
    def cancel_requested(self) -> bool:
        return self._cancel_requested

    # -- driver internals ------------------------------------------------------
    def _track_step(self, step: RequestHandle) -> None:
        """Make ``step`` the one :meth:`cancel` withdraws — at once when
        cancellation was already requested (from the sequence's own token
        callback, before its successor step existed)."""
        with self._cond:
            self._step = step
            cancelled = self._cancel_requested
        if cancelled:
            step.cancel()

    def _emit(self, token: int, at: float) -> None:
        with self._cond:
            if self.stats.first_token_at is None:
                self.stats.first_token_at = at
            elif self._last_emit_at is not None:
                self.stats.inter_step_ms.append(
                    max(0.0, at - self._last_emit_at) * 1e3
                )
            self._last_emit_at = at
            self.tokens.append(token)
            self.stats.tokens = len(self.tokens)
            self._cond.notify_all()
        cb = self.request.on_token
        if cb is not None:
            # a raising callback cancels only this sequence (the driver
            # fails the handle with the callback's error), never the round
            cb(self, token, len(self.tokens) - 1, at)

    def _finish(self, status: str, at: float, error: Optional[BaseException] = None) -> None:
        with self._cond:
            if self.done:
                return
            self.stats.status = status
            self.stats.finished_at = at
            self.error = error
            self.done = True
            self._cond.notify_all()

    def __repr__(self) -> str:
        state = self.stats.status if self.done else "generating"
        return f"GenerationHandle(tokens={len(self.tokens)}, {state})"


#: samples each aggregate percentile looks back over: a session that decodes
#: for days keeps a fixed window per metric instead of one float per token
_WINDOW = 4096


class GenerationMetrics:
    """Aggregate per-step SLO metrics across finished sequences.

    Counters cover the session's whole life; the percentiles cover the most
    recent :data:`_WINDOW` sequences (TTFS) and token gaps (inter-step).
    Attached to the driving session as ``session.generation_metrics`` so
    :meth:`Endpoint.summary` / :meth:`Server.summary` surface the decode
    SLO view next to the serving counters."""

    def __init__(self) -> None:
        self.requests = 0
        self.tokens = 0
        self.steps = 0
        self.cancelled = 0
        self.expired = 0
        self._ttfs_ms: Deque[float] = deque(maxlen=_WINDOW)
        self._inter_step_ms: Deque[float] = deque(maxlen=_WINDOW)

    def record(self, stats: GenerationStats) -> None:
        self.requests += 1
        self.tokens += stats.tokens
        self.steps += stats.steps
        if stats.status == "cancelled":
            self.cancelled += 1
        elif stats.status == "expired":
            self.expired += 1
        ttfs = stats.ttfs_ms
        if ttfs is not None:
            self._ttfs_ms.append(ttfs)
        self._inter_step_ms.extend(stats.inter_step_ms)

    @staticmethod
    def _pct(values: Deque[float], q: float) -> float:
        return float(np.percentile(values, q)) if values else 0.0

    @property
    def ttfs_p50_ms(self) -> float:
        return self._pct(self._ttfs_ms, 50)

    @property
    def ttfs_p99_ms(self) -> float:
        return self._pct(self._ttfs_ms, 99)

    @property
    def inter_step_p99_ms(self) -> float:
        return self._pct(self._inter_step_ms, 99)

    def summary(self) -> dict:
        """The ``Endpoint.summary()`` merge payload."""
        return {
            "gen_requests": self.requests,
            "gen_tokens": self.tokens,
            "gen_cancelled": self.cancelled,
            "gen_expired": self.expired,
            "ttfs_p50_ms": self.ttfs_p50_ms,
            "ttfs_p99_ms": self.ttfs_p99_ms,
            "inter_step_p99_ms": self.inter_step_p99_ms,
        }
