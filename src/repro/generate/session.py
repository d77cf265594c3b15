"""Autoregressive generation over one endpoint of a serving server.

Each live sequence re-enters the round former once per generated token.
A step is one ordinary request to the decoder endpoint, the fold
``(state, tokens) -> (state', logits)``: the first step folds over the
whole prompt (its chain batched by depth with the round's other chains),
every later one over the single token it feeds back.  Nothing below the
session knows generation exists.

Both clocks run one per-step handler (:meth:`GenerationSession._step_done`)
when a step resolves: a failed step retires its sequence, a completed one
emits its token and admits the successor step.

* **simulated** (:meth:`GenerationSession.generate`): arrivals and step
  completions are scheduled calls of the trace driver
  :meth:`Server.replay <repro.serve.server.Server.replay>` runs.  A
  completion fires at its round's completion timestamp, before the
  same-instant device-idle wakeup, so that launch takes the whole cohort
  as one round; replaying a request list is bit-for-bit identical.
* **wall clock** (:meth:`GenerationSession.submit` behind
  :meth:`Server.run <repro.serve.server.Server.run>`): the step handle's
  done callback runs the handler on the serve-loop thread, which admits
  the successor into its own queue.  The session starts no thread, and
  ``on_token`` runs on the loop thread, so a blocking callback delays the
  loop.  A loop-thread admission never waits on ``block`` backpressure;
  ``reject`` and ``shed-oldest`` fail only the refused or shed sequence.

Recurrent state stays **arena-resident** across steps: a step's output
state is a zero-copy view into a device-born output arena (arena ids are
never recycled), and the simulated driver marks it resident
(:meth:`~repro.runtime.device.DeviceSimulator.note_resident`) before
feeding it back, so the next step is charged no host→device transfer.
Embedding rows are pre-sliced once per vocabulary entry, so the residency
cache sees a device-resident table.  Token selection (greedy argmax) and
stopping are host-side, which keeps the decoder free of tensor-dependent
control flow and decode rounds on the non-fiber path.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..serve.request import RequestCancelled, RequestExpired, RequestHandle
from ..utils import flatten_arrays
from .request import (
    GenerationCancelled,
    GenerationExpired,
    GenerationHandle,
    GenerationMetrics,
    GenerationRequest,
)


class _Sequence:
    """Driver-internal state of one generating sequence."""

    __slots__ = ("handle", "req", "state", "step")

    def __init__(self, handle: GenerationHandle, state: np.ndarray) -> None:
        self.handle = handle
        self.req = handle.request
        #: recurrent state fed into the next step (device-resident view
        #: after the first step)
        self.state = state
        #: the in-flight step's serving handle (None between steps)
        self.step: Optional[RequestHandle] = None


class GenerationSession:
    """Drives autoregressive sequences through one endpoint of a server.

    Parameters
    ----------
    server / endpoint:
        The :class:`~repro.serve.server.Server` and the name of its decoder
        endpoint (a model with ``main(state, tokens) -> (new_state,
        logits)``).  On a :class:`~repro.serve.clock.SimulatedClock` server
        :meth:`generate` replays a request list; behind a running server
        (:meth:`Server.run <repro.serve.server.Server.run>`) :meth:`submit`
        streams sequences on the wall clock.
    model:
        The decoder model module (e.g. ``repro.models.declm`` or
        ``repro.models.declm.gru``): supplies ``embedding`` /
        ``initial_state`` / ``select_token`` / ``instance_input``.
    size:
        The model's :class:`~repro.models.configs.ModelSize` (``classes``
        doubles as the vocabulary size).
    seed:
        Embedding-table seed; must match the reference
        (:func:`reference_generate` uses the same default).
    eos_id:
        Token id that terminates a sequence (None: only ``max_new_tokens``
        stops it).
    """

    def __init__(
        self,
        *,
        server: Any,
        endpoint: str,
        model: Any,
        size: Any,
        seed: int = 0,
        eos_id: Optional[int] = None,
    ) -> None:
        self._server = server
        self._endpoint = endpoint
        self.model = model
        self.size = size
        self.eos_id = eos_id
        self.metrics = GenerationMetrics()
        # surface the decode SLO view in Endpoint.summary()/Server.summary()
        server.endpoint(endpoint).session.generation_metrics = self.metrics
        # pre-slice the embedding rows once: each row is then a *stable*
        # object across every step that consumes that token, so the device
        # residency cache treats the table as uploaded-once (a real serving
        # stack keeps the embedding matrix resident)
        self._embedding = model.embedding(size, seed=seed)
        self._emb_rows = [
            self._embedding[i : i + 1] for i in range(self._embedding.shape[0])
        ]
        # sequences started and not yet retired: a wall-clock sequence
        # retires on whichever thread resolves its last step (a serve loop,
        # or a producer whose admission shed it), so the count and the
        # metrics it records change under this lock
        self._live = 0
        self._cond = threading.Condition()

    # -- shared per-step logic -------------------------------------------------
    def _start(self, handle: GenerationHandle) -> _Sequence:
        with self._cond:
            self._live += 1
        return _Sequence(handle, self.model.initial_state(self.size))

    def _instance(self, seq: _Sequence, tokens: Sequence[int]) -> Any:
        """The step folding ``tokens`` into ``seq``'s state: the whole
        prompt first, then the one token each step emitted."""
        return self.model.instance_input(
            None, (seq.state, [self._emb_rows[t] for t in tokens])
        )

    def _retire(
        self, seq: _Sequence, at: float, status: str, error: Optional[BaseException] = None
    ) -> None:
        seq.handle._finish(status, at, error)
        with self._cond:
            self.metrics.record(seq.handle.stats)
            self._live -= 1
            self._cond.notify_all()

    def _step_done(self, seq: _Sequence, submit: Callable[[_Sequence, Any], None]) -> None:
        """The per-step handler both clocks run once ``seq``'s step has
        resolved.  A failed step retires the sequence with the matching
        status; a completed one emits its token, applies cancellation /
        deadline / EOS / ``max_new_tokens`` stopping, and admits the
        successor step through ``submit(seq, instance)``."""
        step, seq.step = seq.step, None
        handle, req = seq.handle, seq.req
        at = (
            step.stats.completed_at if step.stats is not None
            else self._server.clock.now()
        )
        err = step.exception(0)
        if err is not None:
            status, error = "failed", err
            if isinstance(err, RequestCancelled):
                status, error = "cancelled", GenerationCancelled(str(err))
            elif isinstance(err, RequestExpired):
                status, error = "expired", GenerationExpired(str(err))
            if error is not err:
                error.__cause__ = err
            return self._retire(seq, at, status, error)
        handle.stats.steps += 1
        if handle.cancel_requested:
            return self._retire(
                seq, at, "cancelled",
                GenerationCancelled("generation cancelled mid-sequence"),
            )
        if req.deadline is not None and at > req.deadline:
            return self._retire(
                seq, at, "expired",
                GenerationExpired(
                    f"deadline {req.deadline!r} passed at step completion {at!r}"
                ),
            )
        seq.state, logits = flatten_arrays(step.result())
        token = self.model.select_token(logits)
        try:
            handle._emit(token, at)
        except BaseException as exc:
            # a raising on_token callback kills only this sequence
            return self._retire(seq, at, "failed", exc)
        if (self.eos_id is not None and token == self.eos_id) or len(
            handle.tokens
        ) >= req.max_new_tokens:
            return self._retire(seq, at, "done")
        submit(seq, self._instance(seq, [token]))

    # -- simulated clock -------------------------------------------------------
    def generate(
        self,
        requests: Sequence[GenerationRequest],
        *,
        host_model: Optional[Tuple[float, float]] = None,
    ) -> List[GenerationHandle]:
        """Deterministically generate every request on the server's
        simulated clock: one :meth:`Server.replay
        <repro.serve.server.Server.replay>` without a trace, in which each
        arrival and each step completion is a scheduled call.  Each step is
        admitted like any request (deadline checks, backpressure,
        host-gated dispatch), and measured host time never enters: the same
        request list replays bit-for-bit.  ``host_model`` is the replay's
        ``(per_round_ms, per_request_ms)`` flush-cost model; a decode step
        is one request.  Returns one finished :class:`GenerationHandle` per
        request, in input order."""
        name = self._endpoint
        device = self._server.endpoint(name).session.engine.device

        def arrive(handle: GenerationHandle, driver: Any) -> None:
            def submit(seq: _Sequence, instance: Any) -> None:
                seq.step = step = driver.admit(
                    driver.clock.now(), name, instance, {"deadline": seq.req.deadline}
                )
                # the step's completion is a driver call at its round's
                # completion timestamp (a withdrawn or expired step: now)
                step.add_done_callback(
                    lambda h: driver.call_at(
                        h.stats.completed_at if h.stats is not None
                        else driver.clock.now(),
                        lambda: self._step_done(seq, resubmit),
                    )
                )
                seq.handle._track_step(step)

            def resubmit(seq: _Sequence, instance: Any) -> None:
                # the fed-back state is a zero-copy view into a device-born
                # output arena: it costs no host→device transfer, and the
                # arena id is never recycled so later rounds cannot
                # overwrite it
                device.note_resident(seq.state)
                submit(seq, instance)

            seq = self._start(handle)
            submit(seq, self._instance(seq, seq.req.prompt))

        handles = [GenerationHandle(req) for req in requests]
        self._server.replay(
            (),
            host_model=host_model,
            calls=[(h.request.arrival, lambda d, h=h: arrive(h, d)) for h in handles],
        )
        return handles

    # -- wall clock ------------------------------------------------------------
    def submit(self, request: GenerationRequest) -> GenerationHandle:
        """Start generating one sequence behind the running server: its
        prompt step is admitted now, and every later step from the serve
        loop that completes the one before.  Returns a streamable handle at
        once; a prompt the server refuses (``BackpressureFull``, or
        ``LoopStopped`` with no loop running) fails it."""
        handle = GenerationHandle(request)
        now = self._server.clock.now()
        handle.submitted_at = now
        handle.stats.submitted_at = now
        seq = self._start(handle)
        self._admit(seq, self._instance(seq, request.prompt))
        return handle

    def _admit(self, seq: _Sequence, instance: Any) -> None:
        """Submit one wall-clock step; its done callback runs the per-step
        handler on the thread that resolves it."""
        try:
            seq.step = self._server.submit(
                self._endpoint, instance, deadline=seq.req.deadline
            )
        except BaseException as exc:  # refused: fails this sequence only
            self._retire(seq, self._server.clock.now(), "failed", exc)
            return
        seq.step.add_done_callback(lambda _h, seq=seq: self._on_step(seq))

    def _on_step(self, seq: _Sequence) -> None:
        try:
            self._step_done(seq, self._admit)
        except BaseException as exc:  # the serve loop outlives any sequence
            if not seq.handle.done:
                self._retire(seq, self._server.clock.now(), "failed", exc)

    def drain(self, timeout: Optional[float] = None) -> None:
        """Block until every submitted sequence has finished."""
        with self._cond:
            if not self._cond.wait_for(lambda: self._live == 0, timeout=timeout):
                raise TimeoutError(
                    f"{self._live} sequences still generating after {timeout}s"
                )

    def close(self, timeout: Optional[float] = None) -> None:
        """Drain: the session holds nothing else to release."""
        self.drain(timeout=timeout)

    def __enter__(self) -> "GenerationSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()


def reference_generate(
    module: Any,
    params: Any,
    model: Any,
    size: Any,
    prompt: Sequence[int],
    max_new_tokens: int,
    *,
    eos_id: Optional[int] = None,
    seed: int = 0,
) -> List[int]:
    """Eager unbatched ground truth for one sequence.

    Runs the decoder through :func:`~repro.core.api.reference_run` the way
    the batched driver steps it — one fold over the whole prompt, then one
    over each emitted token — sharing the embedding table, state
    initialization, output unpacking and greedy selection rule, so a
    batched trajectory that matches this one bitwise proves the whole
    per-step re-batching path changed nothing.
    """
    from ..core.api import reference_run

    emb = model.embedding(size, seed=seed)
    state = model.initial_state(size)
    tokens: List[int] = []
    fed = list(prompt)
    while True:
        rows = [emb[t : t + 1] for t in fed]
        out = reference_run(module, params, [model.instance_input(module, (state, rows))])[0]
        state, logits = flatten_arrays(out)
        token = model.select_token(logits)
        tokens.append(token)
        if (eos_id is not None and token == eos_id) or len(tokens) >= max_new_tokens:
            return tokens
        fed = [token]
