"""Autoregressive generation over a cross-request batching session.

ACROBAT batches *within* one round of independent requests; autoregressive
decoding adds a loop around it: each live sequence re-enters the round
former once per generated token.  :class:`GenerationSession` is that loop.
Each decode step is one ordinary
:meth:`~repro.serve.session.InferenceSession.submit` — a single cell
application ``(state, token) -> (state', logits)`` recorded into the shared
lazy DFG — so decode steps of many live sequences *and fresh prefills*
batch into the same rounds through the normal scheduler → placement →
memory-planner → specializer path.  Nothing below the session knows
generation exists.

Two drivers share the per-step logic:

* **simulated** (:meth:`GenerationSession.generate`): a deterministic
  event loop on the session's :class:`~repro.serve.clock.SimulatedClock`
  and a :class:`~repro.serve.loop.DeviceTimeline` — the decode twin of
  ``ServeLoop.run_trace``.  Rounds form at step boundaries
  (iteration-level scheduling: a round launches when the previous round's
  results have been consumed and its successor steps resubmitted), the
  flush policy decides composition exactly as for single-shot traffic, and
  replaying the same request list is bit-for-bit identical.
* **wall-clock** (:meth:`GenerationSession.submit` behind a running
  :class:`~repro.serve.server.Server`): a pump thread consumes completed
  step handles, selects tokens host-side and resubmits through
  ``Server.submit``, so generation streams through the live serve loop.

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
driver, outside the DFG, keeping decode rounds on the non-fiber path where
plan caching and kernel specialization both apply.
"""

from __future__ import annotations

import heapq
import itertools
import queue
import threading
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..serve.clock import SimulatedClock
from ..serve.loop import DeviceTimeline
from ..serve.request import RequestCancelled, RequestExpired, RequestHandle
from ..serve.sim import replay_state
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

    __slots__ = ("handle", "req", "state", "pos", "step", "finished")

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
        self.finished = False


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
    step_host_ms:
        Modelled host time per processed step result (token selection +
        resubmission) charged to the simulated clock; the wall clock pays
        the real cost instead.
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
        step_host_ms: float = 0.05,
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
        self.step_host_ms = float(step_host_ms)
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
        self._counter = itertools.count()
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
        seq.finished = True
        seq.handle._finish(status, at, error)
        self.metrics.record(seq.handle.stats)

    def _consume_result(
        self, seq: _Sequence, result: Any, at: float
    ) -> Optional[Tuple[Any, bool]]:
        """Apply one completed step's ``(new_state, logits)`` to ``seq``.

        Emits a token when the prompt is exhausted, applies EOS /
        ``max_new_tokens`` / cancellation / deadline stopping, and returns
        the next step's instance (plus whether the sequence is still in
        prefill) — or None when the sequence retired.
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
            return self._next_instance(seq, req.prompt[seq.pos]), True
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
        return self._next_instance(seq, token), False

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

        The decode twin of ``ServeLoop.run_trace``: arrivals and step
        completions interleave as timed events, flushed rounds execute on a
        :class:`~repro.serve.loop.DeviceTimeline` (device time pipelines,
        host time serializes with intake), and with ``deterministic``
        (default) the measured host wall time is excluded — the same
        request list replays bit-for-bit.  ``host_model`` is the
        deterministic ``(per_round_ms, per_request_ms)`` flush-cost model.

        Returns one :class:`GenerationHandle` per request, in input order,
        all finished.
        """
        if self._server is not None:
            raise RuntimeError(
                "generate() drives the simulated clock; this GenerationSession "
                "is in wall-clock server mode — use submit()"
            )
        if not isinstance(self._session.clock, SimulatedClock):
            raise RuntimeError(
                "generate() needs the session on a SimulatedClock; for "
                "wall-clock generation put the model behind a Server and use "
                "GenerationSession(server=..., endpoint=...)"
            )
        session = self._session
        clock = session.clock
        # one lane per group member, so multi-device decode rounds overlap
        # lane-wise exactly as in ServeLoop.run_trace
        timeline = DeviceTimeline(
            clock.now(), num_devices=getattr(session.engine, "num_devices", 1)
        )
        handles = [GenerationHandle(req) for req in requests]
        with replay_state(
            [session],
            deterministic=deterministic,
            host_model=host_model,
            timeline=timeline,
        ):
            self._run_simulated(handles, timeline)
        return handles

    def _submit_step_simulated(
        self, seq: _Sequence, instance: Any, at: float, ready: List
    ) -> None:
        seq.step = handle = self._session.submit(instance, at=at)
        clock = self._session.clock

        def _resolved(h: RequestHandle, seq: _Sequence = seq) -> None:
            # success: the event fires at the round's (possibly future)
            # completion timestamp; failure (cancel/abort): at the clock
            at = h.stats.completed_at if h.stats is not None else clock.now()
            heapq.heappush(ready, (at, next(self._counter), seq))

        handle.add_done_callback(_resolved)

    def _sweep_lifecycle(self, live: "Dict[_Sequence, None]", now: float) -> None:
        """Round-boundary lifecycle point: withdraw the pending step of any
        sequence that was cancelled (or whose deadline passed) before the
        round formed — its DFG nodes leave the shared graph and round-mates
        flush as if it had never stepped."""
        for seq in list(live):
            step = seq.step
            if seq.finished or step is None or step.done:
                continue
            if seq.handle.cancel_requested:
                self._session.cancel(step)
                del live[seq]
                self._retire(
                    seq, now, "cancelled",
                    GenerationCancelled(
                        "generation cancelled before its round formed"
                    ),
                )
            elif seq.req.deadline is not None and now > seq.req.deadline:
                self._session.cancel(step)
                del live[seq]
                self._retire(
                    seq, now, "expired",
                    GenerationExpired(
                        f"deadline {seq.req.deadline!r} passed at {now!r} "
                        "with the step still unflushed"
                    ),
                )

    def _run_simulated(
        self,
        handles: List[GenerationHandle],
        timeline: DeviceTimeline,
    ) -> None:
        session = self._session
        clock = session.clock
        arrivals: List[Tuple[float, int, GenerationHandle]] = sorted(
            (gh.request.arrival, i, gh) for i, gh in enumerate(handles)
        )
        arrivals.reverse()  # pop() takes the earliest
        ready: List[Tuple[float, int, _Sequence]] = []
        live: Dict[_Sequence, None] = {}
        #: completion horizon of the steps consumed since the last flush:
        #: their successors were resubmitted *future-dated* (at= their
        #: producing round's completion), so the next round cannot launch
        #: before the clock reaches this barrier
        barrier: Optional[float] = None

        while live or arrivals:
            na = arrivals[-1][0] if arrivals else None
            nc = ready[0][0] if ready else None
            if na is not None and (nc is None or na <= nc):
                if nc is None and session.pending_requests:
                    # pending steps would flush at the barrier; an arrival
                    # beyond it misses that round — flush first
                    flush_at = max(clock.now(), barrier or clock.now())
                    if na > flush_at:
                        barrier = self._quiesce(live, timeline, barrier)
                        continue
                t, _, gh = arrivals.pop()
                clock.advance_to(t)
                req = gh.request
                seq = _Sequence(gh, self.model.initial_state(self.size))
                if req.deadline is not None and t > req.deadline:
                    self._retire(
                        seq, t, "expired",
                        GenerationExpired(
                            f"deadline {req.deadline!r} already passed on "
                            f"arrival at {t!r}"
                        ),
                    )
                    continue
                live[seq] = None
                self._submit_step_simulated(
                    seq, self._first_instance(seq), t, ready
                )
                continue
            if nc is not None:
                c, _, seq = heapq.heappop(ready)
                if seq.finished:
                    continue
                barrier = c if barrier is None else max(barrier, c)
                # host-side step cost: unpack, argmax, resubmit (serial
                # with intake, like the flush host share)
                clock.charge(self.step_host_ms / 1e3)
                step, seq.step = seq.step, None
                err = step.exception(0)
                if err is not None:
                    del live[seq]
                    status = (
                        "cancelled" if isinstance(err, RequestCancelled)
                        else "expired" if isinstance(err, RequestExpired)
                        else "failed"
                    )
                    self._retire(seq, c, status, err)
                    continue
                nxt = self._consume_result(seq, step.result(), c)
                if nxt is None:
                    del live[seq]
                    continue
                # resubmit future-dated at the producing round's completion:
                # the step logically exists once its input state does.  The
                # clock may still lag behind c, but the submit is never
                # *behind* an earlier pending arrival because events are
                # consumed in timestamp order.
                self._submit_step_simulated(seq, nxt[0], c, ready)
                continue
            # quiesce: every live step awaits a flush
            if not session.pending_requests and barrier is None:
                raise RuntimeError(
                    "generation driver stalled: live sequences with no "
                    "pending steps, no events, and no barrier"
                )
            barrier = self._quiesce(live, timeline, barrier)

    def _quiesce(
        self,
        live: "Dict[_Sequence, None]",
        timeline: DeviceTimeline,
        barrier: Optional[float],
    ) -> Optional[float]:
        """Round boundary: sweep lifecycle, advance to the barrier, and let
        the flush policy launch the accumulated round.  Returns the new
        (cleared) barrier."""
        session = self._session
        clock = session.clock
        self._sweep_lifecycle(live, clock.now())
        if barrier is not None:
            clock.advance_to(barrier)
        timeline.pop_completions(clock.now())
        if session.pending_requests:
            if session.poll() is None and session.pending_requests:
                if session.policy.on_idle(session, clock.now()):
                    session.flush(reason=session.policy.name)
                else:
                    # policies with no idle rule (manual) must still make
                    # progress — generation would otherwise deadlock
                    session.flush(reason="drain")
        return None

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
                        continue
                    self._wall_submit_step(seq, self._first_instance(seq))
                    continue
                # completed step
                step, seq.step = seq.step, None
                err = step.exception(0)
                at = (
                    step.stats.completed_at if step.stats is not None
                    else clock.now()
                )
                if err is not None:
                    status = (
                        "cancelled" if isinstance(err, RequestCancelled)
                        else "expired" if isinstance(err, RequestExpired)
                        else "failed"
                    )
                    self._retire(seq, at, status, err)
                    self._wall_retired()
                    continue
                # note: unlike the simulated driver, the wall pump does not
                # mark the fed-back state resident — the residency cache is
                # owned by the loop thread mid-flush, and the cost is only a
                # modelled re-upload of one (1, hidden) row per step
                nxt = self._consume_result(seq, step.result(), at)
                if nxt is None:
                    self._wall_retired()
                    continue
                self._wall_submit_step(seq, nxt[0])
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
