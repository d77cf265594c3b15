"""Autoregressive generation over a cross-request batching session.

ACROBAT batches *within* one round of independent requests; autoregressive
decoding adds a loop around it: each live sequence re-enters the round
former once per generated token.  :class:`GenerationSession` is that loop.
Each decode step is one ordinary
:meth:`~repro.serve.session.InferenceSession.submit` — a single cell
application ``(state, token) -> (state', logits)`` recorded into the shared
lazy DFG — so decode steps of many live sequences *and fresh prefills*
batch into the same rounds through the normal scheduler → placement →
memory-planner path.  Nothing below the session knows
generation exists.

Both drivers run one per-step handler (:meth:`GenerationSession._step_done`:
map a failed step to the sequence's status, or consume the result and
resubmit the successor step):

* **simulated** (:meth:`GenerationSession.generate`): the steps run
  through the one simulated event driver,
  :class:`~repro.serve.sim.TraceDriver`, over a one-session
  :class:`~repro.serve.loop.ServeLoop` — the machinery under
  ``Server.replay``.  A step's completion is a driver event at its
  round's completion timestamp; the handler admits the successor there,
  before the same-instant device-idle wakeup, so that launch takes the
  whole cohort as one round (iteration-level scheduling).  The flush
  policy decides composition exactly as for single-shot traffic, and
  replaying the same request list is bit-for-bit identical.
* **wall-clock** (:meth:`GenerationSession.submit` behind a running
  :class:`~repro.serve.server.Server`): a pump thread runs the handler on
  completed step handles and resubmits through ``Server.submit``, so
  generation streams through the live serve loop.

Per-sequence recurrent state stays **arena-resident** across steps: a
step's output state is a zero-copy view into a device-born output arena
(arena ids are never recycled, so later rounds cannot overwrite it), and
the driver marks it resident
(:meth:`~repro.runtime.device.DeviceSimulator.note_resident`) before
feeding it back, so the next step's planner sees the bytes already on the
device and charges no host→device transfer.  Embedding rows are pre-sliced
once per vocabulary entry, giving them stable identities in the residency
cache — a device-resident embedding table.

Token selection (greedy argmax) and EOS/max-token stopping are host-side
and data-dependent, which is exactly why the cell itself carries no
tensor-dependent control flow: the sequential structure lives in this
driver, outside the DFG, keeping decode rounds on the non-fiber path.
"""

from __future__ import annotations

import queue
import threading
from typing import Any, Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..serve.clock import SimulatedClock
from ..serve.loop import ServeLoop
from ..serve.request import RequestCancelled, RequestExpired, RequestHandle
from ..serve.sim import TraceDriver
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

    __slots__ = ("handle", "req", "state", "pos", "step")

    def __init__(self, handle: GenerationHandle, state: np.ndarray) -> None:
        self.handle = handle
        self.req = handle.request
        #: recurrent state fed into the next step (device-resident view
        #: after the first step)
        self.state = state
        #: index of the last prompt token consumed so far
        self.pos = 0
        #: the in-flight step's serving handle (None between steps)
        self.step: Optional[RequestHandle] = None


class GenerationSession:
    """Drives autoregressive sequences through a batching session.

    Parameters
    ----------
    session:
        The :class:`~repro.serve.session.InferenceSession` compiled over a
        decoder-step model (``main(state, inp) -> (new_state, logits)``).
        Simulated driving (:meth:`generate`) requires its clock to be a
        :class:`~repro.serve.clock.SimulatedClock`.  Mutually exclusive
        with ``server``.
    server / endpoint:
        Wall-clock mode: the running :class:`~repro.serve.server.Server`
        and the name of the decoder endpoint on it.  Steps are resubmitted
        through ``server.submit`` from a pump thread (:meth:`submit` /
        :meth:`close`).
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
        session: Any = None,
        model: Any = None,
        size: Any = None,
        *,
        server: Any = None,
        endpoint: Optional[str] = None,
        seed: int = 0,
        eos_id: Optional[int] = None,
    ) -> None:
        if (session is None) == (server is None):
            raise ValueError("pass exactly one of session= or server=")
        if model is None or size is None:
            raise ValueError("GenerationSession needs model= and size=")
        if server is not None and endpoint is None:
            raise ValueError("wall-clock mode needs endpoint= (the name)")
        self._server = server
        self._endpoint = endpoint
        if server is not None:
            session = server.endpoint(endpoint).session
        self._session = session
        self.model = model
        self.size = size
        self.eos_id = eos_id
        self.metrics = GenerationMetrics()
        # surface the decode SLO view in Endpoint.summary()/Server.summary()
        session.generation_metrics = self.metrics
        # state feedback is marked device-resident only on the simulated
        # driver: the wall loop thread owns the residency cache mid-flush
        self._mark_resident = server is None
        # pre-slice the embedding rows once: each row is then a *stable*
        # object across every step that consumes that token, so the device
        # residency cache treats the table as uploaded-once (a real serving
        # stack keeps the embedding matrix resident)
        self._embedding = model.embedding(size, seed=seed)
        self._emb_rows = [
            self._embedding[i : i + 1] for i in range(self._embedding.shape[0])
        ]
        # wall-clock pump state (started lazily by the first submit)
        self._pump: Optional[threading.Thread] = None
        self._events: "queue.Queue" = queue.Queue()
        self._wall_live = 0
        self._wall_cond = threading.Condition()

    # -- shared per-step logic -------------------------------------------------
    def _first_instance(self, seq: _Sequence) -> Any:
        return self.model.instance_input(
            None, (seq.state, self._emb_rows[seq.req.prompt[0]])
        )

    def _next_instance(self, seq: _Sequence, token: int) -> Any:
        return self.model.instance_input(None, (seq.state, self._emb_rows[token]))

    def _retire(
        self,
        seq: _Sequence,
        at: float,
        status: str,
        error: Optional[BaseException] = None,
    ) -> None:
        seq.handle._finish(status, at, error)
        self.metrics.record(seq.handle.stats)

    def _consume_result(self, seq: _Sequence, result: Any, at: float) -> Any:
        """Apply one completed step's ``(new_state, logits)`` to ``seq``.

        Emits a token when the prompt is exhausted, applies EOS /
        ``max_new_tokens`` / cancellation / deadline stopping, and returns
        the next step's instance — or None when the sequence retired.
        """
        handle = seq.handle
        req = seq.req
        handle.stats.steps += 1
        if handle.cancel_requested:
            self._retire(
                seq, at, "cancelled",
                GenerationCancelled("generation cancelled mid-sequence"),
            )
            return None
        if req.deadline is not None and at > req.deadline:
            self._retire(
                seq, at, "expired",
                GenerationExpired(
                    f"deadline {req.deadline!r} passed at step completion {at!r}"
                ),
            )
            return None
        state, logits = flatten_arrays(result)
        seq.state = state
        if self._mark_resident:
            # the state is a zero-copy view into a device-born output arena:
            # feeding it back costs no host→device transfer, and the arena id
            # is never recycled so later rounds cannot overwrite it
            self._session.engine.device.note_resident(state)
        if seq.pos < len(req.prompt) - 1:
            # still prefilling: consume the next prompt token, emit nothing
            seq.pos += 1
            return self._next_instance(seq, req.prompt[seq.pos])
        token = self.model.select_token(logits)
        try:
            handle._emit(token, at)
        except BaseException as exc:
            # a raising on_token callback kills only this sequence
            self._retire(seq, at, "failed", exc)
            return None
        if (self.eos_id is not None and token == self.eos_id) or len(
            handle.tokens
        ) >= req.max_new_tokens:
            self._retire(seq, at, "done")
            return None
        return self._next_instance(seq, token)

    def _step_done(
        self, seq: _Sequence, submit: Callable[[_Sequence, Any], None]
    ) -> bool:
        """The per-step handler both drivers run once ``seq``'s step has
        resolved: a failed step retires the sequence with the matching
        status, a completed one is consumed and its successor resubmitted
        through ``submit(seq, instance)``.  Returns whether the sequence is
        still live."""
        step, seq.step = seq.step, None
        at = (
            step.stats.completed_at if step.stats is not None
            else self._session.clock.now()
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
            self._retire(seq, at, status, error)
            return False
        instance = self._consume_result(seq, step.result(), at)
        if instance is None:
            return False
        submit(seq, instance)
        return True

    # ==========================================================================
    # simulated mode
    # ==========================================================================
    def generate(
        self,
        requests: Sequence[GenerationRequest],
        *,
        deterministic: bool = True,
        host_model: Optional[Tuple[float, float]] = None,
    ) -> List[GenerationHandle]:
        """Deterministically generate every request on the simulated clock.

        Arrivals and step completions are events of one
        :class:`~repro.serve.sim.TraceDriver` over a one-session
        :class:`~repro.serve.loop.ServeLoop`: flushed rounds execute on the
        loop's device timeline (device time pipelines, host time occupies
        the host lane), each step is admitted like any request (deadline
        checks, host-gated dispatch), and with ``deterministic`` (default)
        the measured host wall time is excluded — the same request list
        replays bit-for-bit.  ``host_model`` is the deterministic
        ``(per_round_ms, per_request_ms)`` flush-cost model; a decode step
        is one request, so ``per_request_ms`` prices its host work.

        Returns one :class:`GenerationHandle` per request, in input order,
        all finished.
        """
        if self._server is not None:
            raise RuntimeError(
                "generate() drives the simulated clock; this GenerationSession "
                "is in wall-clock server mode — use submit()"
            )
        clock = self._session.clock
        if not isinstance(clock, SimulatedClock):
            raise RuntimeError(
                "generate() needs the session on a SimulatedClock; for "
                "wall-clock generation put the model behind a Server and use "
                "GenerationSession(server=..., endpoint=...)"
            )
        driver = TraceDriver(
            [ServeLoop(sessions={"_": self._session}, clock=clock)], clock
        )

        def submit(seq: _Sequence, instance: Any) -> None:
            seq.step = step = driver.admit(
                clock.now(), "_", instance, {"deadline": seq.req.deadline}
            )
            # the step's completion is a driver event at its round's
            # completion timestamp (a withdrawn or expired step: now)
            step.add_done_callback(
                lambda h: driver.call_at(
                    h.stats.completed_at if h.stats is not None else clock.now(),
                    lambda: self._step_done(seq, submit),
                )
            )
            seq.handle._track_step(step)

        def arrive(handle: GenerationHandle) -> None:
            seq = _Sequence(handle, self.model.initial_state(self.size))
            submit(seq, self._first_instance(seq))

        handles = [GenerationHandle(req) for req in requests]
        for handle in handles:
            driver.call_at(handle.request.arrival, lambda h=handle: arrive(h))
        driver.run((), deterministic=deterministic, host_model=host_model)
        return handles

    # ==========================================================================
    # wall-clock mode
    # ==========================================================================
    def submit(self, request: GenerationRequest) -> GenerationHandle:
        """Start generating one sequence through the running server's loop
        (wall-clock mode); returns immediately with a streamable handle."""
        if self._server is None:
            raise RuntimeError(
                "submit() is the wall-clock entry point; this "
                "GenerationSession drives a simulated session — use generate()"
            )
        handle = GenerationHandle(request)
        now = self._server.clock.now()
        handle.submitted_at = now
        handle.stats.submitted_at = now
        with self._wall_cond:
            self._wall_live += 1
            if self._pump is None:
                self._pump = threading.Thread(
                    target=self._pump_loop, name="generation-pump", daemon=True
                )
                self._pump.start()
        self._events.put(("new", _Sequence(handle, self.model.initial_state(self.size))))
        return handle

    def drain(self, timeout: Optional[float] = None) -> None:
        """Block until every submitted sequence has finished."""
        with self._wall_cond:
            if not self._wall_cond.wait_for(
                lambda: self._wall_live == 0, timeout=timeout
            ):
                raise TimeoutError(
                    f"{self._wall_live} sequences still generating after "
                    f"{timeout}s"
                )

    def close(self, timeout: Optional[float] = None) -> None:
        """Drain and stop the pump thread."""
        self.drain(timeout=timeout)
        pump = self._pump
        if pump is not None:
            self._events.put(None)
            pump.join(timeout=timeout)
            self._pump = None

    def __enter__(self) -> "GenerationSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()

    def _wall_submit_step(self, seq: _Sequence, instance: Any) -> None:
        seq.step = self._server.submit(
            self._endpoint, instance, deadline=seq.req.deadline
        )
        seq.step.add_done_callback(
            lambda _h, seq=seq: self._events.put(("step", seq))
        )

    def _wall_retired(self) -> None:
        with self._wall_cond:
            self._wall_live -= 1
            self._wall_cond.notify_all()

    def _pump_loop(self) -> None:
        clock = self._server.clock
        while True:
            ev = self._events.get()
            if ev is None:
                return
            kind, seq = ev
            try:
                if kind == "new":
                    if seq.handle.cancel_requested:
                        self._retire(
                            seq, clock.now(), "cancelled",
                            GenerationCancelled("cancelled before first step"),
                        )
                        self._wall_retired()
                    else:
                        self._wall_submit_step(seq, self._first_instance(seq))
                elif not self._step_done(seq, self._wall_submit_step):
                    self._wall_retired()
            except BaseException as exc:  # pump must survive any sequence
                if not seq.handle.done:
                    self._retire(seq, clock.now(), "failed", exc)
                    self._wall_retired()


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

    Runs the decoder cell step by step through
    :func:`~repro.core.api.reference_run`, sharing the embedding table,
    state initialization, output unpacking and greedy selection rule with
    the batched driver — so a batched trajectory that matches this one
    bitwise proves the whole per-step re-batching path changed nothing.
    """
    from ..core.api import reference_run

    emb = model.embedding(size, seed=seed)
    state = model.initial_state(size)
    tokens: List[int] = []
    pos = 0
    inp_token = prompt[0]
    while True:
        out = reference_run(
            module, params,
            [model.instance_input(module, (state, emb[inp_token : inp_token + 1]))],
        )[0]
        state, logits = flatten_arrays(out)
        if pos < len(prompt) - 1:
            pos += 1
            inp_token = prompt[pos]
            continue
        token = model.select_token(logits)
        tokens.append(token)
        if (eos_id is not None and token == eos_id) or len(tokens) >= max_new_tokens:
            return tokens
        inp_token = token
