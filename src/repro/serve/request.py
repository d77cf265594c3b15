"""Future-style request handles with per-request serving statistics.

:meth:`~repro.serve.session.InferenceSession.submit` returns a
:class:`RequestHandle` immediately; the handle resolves when the flush
policy (or an explicit ``flush()``) executes the request's batching round.
Besides the result value, the handle carries a :class:`RequestStats` — the
per-request observability a serving system needs: how long the request
queued waiting for its batch, its end-to-end latency, how large the batch
it rode in was, and its share of the round's kernel launches (the
amortization cross-request batching buys).

Handles are backed by a :class:`concurrent.futures.Future`, so one object
serves every consumption style:

* synchronous, caller-driven: ``handle.result()`` after ``flush()``/
  ``poll()`` (raises if the round has not executed — the historical
  behaviour);
* threaded, loop-driven: ``handle.result(timeout=...)`` blocks until the
  :class:`~repro.serve.loop.ServeLoop` flushes the round (or the timeout
  expires);
* async: ``await handle`` inside any asyncio event loop (the loop thread
  resolves the future, asyncio wakes the coroutine).

A handle that was *shed* by the admission queue's backpressure policy (or
whose round failed) resolves exceptionally: ``result()``/``await`` raise,
``handle.failed`` is True and :meth:`exception` returns the error.
"""

from __future__ import annotations

import concurrent.futures
import logging
import threading
from dataclasses import dataclass
from typing import Any, Callable, List, Optional

_log = logging.getLogger(__name__)

#: guards every handle's ``done`` flip and callback list: registration (any
#: thread) races resolution (the loop thread).  One lock for all handles — it
#: is held for an append or a swap, never while a callback runs
_callbacks_lock = threading.Lock()

#: sentinel distinguishing ``result()`` (historical: raise when not done)
#: from ``result(timeout=None)`` (block forever)
_UNSET = object()


class RequestCancelled(Exception):
    """The request was cancelled before its round formed.

    Raised out of ``result()``/``await`` on a handle whose
    :meth:`RequestHandle.cancel` succeeded; round-mates are unaffected."""


class RequestExpired(Exception):
    """The request's deadline passed before it could be dispatched/flushed."""


@dataclass
class RequestStats:
    """Per-request serving statistics, filled in when the request's round
    flushes."""

    #: clock timestamp at which the request was submitted (arrival time)
    submitted_at: float = 0.0
    #: clock timestamp at which the request's round started executing
    flushed_at: float = 0.0
    #: clock timestamp at which the request's result became available
    completed_at: float = 0.0
    #: time spent queued waiting for the batch to flush (ms)
    queue_ms: float = 0.0
    #: the round's execution latency: host time + simulated device time —
    #: including, under a continuous-batching loop, time the round spent
    #: queued behind earlier rounds on the busy device (ms)
    execute_ms: float = 0.0
    #: end-to-end latency: queueing + execution (ms)
    latency_ms: float = 0.0
    #: how many requests shared the request's batching round
    batch_size: int = 0
    #: kernel launches of the round divided by its batch size — the
    #: per-request launch cost after cross-request amortization
    launch_share: float = 0.0
    #: what triggered the flush ("size", "deadline", "adaptive", "manual")
    flush_reason: str = ""


class RequestHandle:
    """Handle for one submitted request; resolves at its round's flush."""

    __slots__ = (
        "index", "submitted_at", "done", "stats", "_future", "_managed",
        "_origin", "deadline", "_callbacks",
    )

    def __init__(
        self,
        index: int,
        submitted_at: float = 0.0,
        *,
        deadline: Optional[float] = None,
    ) -> None:
        #: position of the request within its batching round (-1 while the
        #: request sits in a serve loop's admission queue)
        self.index = index
        #: clock timestamp of submission
        self.submitted_at = submitted_at
        #: clock timestamp after which a still-queued request expires
        #: (None: no deadline)
        self.deadline = deadline
        self.done = False
        #: per-request statistics (None until the round flushes)
        self.stats: Optional[RequestStats] = None
        self._future: concurrent.futures.Future = concurrent.futures.Future()
        # done-callbacks live here, not on the future: a closure over the
        # handle registered on the handle's own future is a reference cycle
        # per request
        self._callbacks: Optional[List[Callable[["RequestHandle"], Any]]] = None
        # loop-managed handles may legitimately be pending when result() is
        # called from another thread, so a bare result() blocks instead of
        # raising
        self._managed = False
        # whoever currently owns the pending request (an InferenceSession or
        # a ServeLoop) — the target cancel() delegates to
        self._origin: Any = None

    # -- consumption -----------------------------------------------------------
    def _resolve(self, timeout: Any, accessor: str) -> Any:
        """Shared raise-or-block contract of :meth:`result` and
        :meth:`exception`: without a timeout an unmanaged pending handle
        raises (the synchronous API cannot resolve it from here), otherwise
        block on the future and translate its timeout error."""
        if timeout is _UNSET:
            if not self.done and not self._managed:
                raise RuntimeError(
                    "request not executed yet: call InferenceSession.flush() "
                    "(or wait for the session's flush policy to trigger)"
                )
            timeout = None
        try:
            return getattr(self._future, accessor)(timeout)
        except concurrent.futures.TimeoutError:
            raise TimeoutError(
                f"request not completed within {timeout}s"
            ) from None

    def result(self, timeout: Any = _UNSET) -> Any:
        """The request's output.

        Without arguments, keeps the synchronous API's contract: raises
        ``RuntimeError`` if the round has not flushed yet — *unless* the
        handle is owned by a running :class:`~repro.serve.loop.ServeLoop`,
        in which case it blocks until the loop resolves it.  With
        ``timeout=`` (seconds, or None to wait forever) it always blocks,
        raising ``TimeoutError`` when the deadline expires first.
        """
        return self._resolve(timeout, "result")

    def exception(self, timeout: Any = _UNSET) -> Optional[BaseException]:
        """The exception the request failed with (None when it succeeded);
        blocks (or raises on an unmanaged pending handle) exactly like
        :meth:`result`."""
        return self._resolve(timeout, "exception")

    @property
    def failed(self) -> bool:
        """True when the request resolved exceptionally (shed by
        backpressure, or its round's execution raised)."""
        return self.done and self._future.exception(0) is not None

    def __await__(self):
        """Awaitable inside any running asyncio loop: ``await handle``."""
        # imported here: asyncio costs ~7 MB of RSS and its import time in
        # every process that serves, and only a caller already running an
        # event loop reaches this line
        import asyncio

        return asyncio.wrap_future(self._future).__await__()

    def add_done_callback(self, fn) -> None:
        """Run ``fn(handle)`` when the handle resolves (from whichever thread
        resolves it — keep the callback cheap and non-reentrant).  Callbacks
        run in registration order; one added after resolution runs at once;
        an exception in one is logged and does not stop the rest."""
        with _callbacks_lock:
            if not self.done:
                if self._callbacks is None:
                    self._callbacks = []
                self._callbacks.append(fn)
                return
        self._run_callback(fn)

    def _run_callback(self, fn) -> None:
        try:
            fn(self)
        except Exception:
            _log.exception("exception calling callback for %r", self)

    # -- lifecycle -------------------------------------------------------------
    def cancel(self) -> bool:
        """Withdraw the request before its round forms.

        Returns True when the request was still pending and has been removed
        from its owner (session round or loop admission queue) — the handle
        then fails with :class:`RequestCancelled` and round-mates flush as if
        the request had never been submitted.  Returns False when the request
        already resolved or its round already executed (results are not
        retracted).  Safe from any thread for loop-managed handles; for
        caller-driven sessions it must run on the driving thread.
        """
        if self.done:
            return False
        origin = self._origin
        if origin is None:
            return False
        return bool(origin._cancel_handle(self))

    # -- resolution (serving internals) ----------------------------------------
    def _complete(self, value: Any, stats: RequestStats) -> None:
        self.stats = stats
        self._future.set_result(value)
        self._resolved()

    def _fail(self, exc: BaseException) -> None:
        self._future.set_exception(exc)
        self._resolved()

    def _resolved(self) -> None:
        with _callbacks_lock:
            self.done = True
            callbacks, self._callbacks = self._callbacks, None
        for fn in callbacks or ():
            self._run_callback(fn)

    def __repr__(self) -> str:
        state = "failed" if self.failed else ("done" if self.done else "pending")
        return f"RequestHandle(index={self.index}, {state})"
