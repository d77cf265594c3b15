"""Policy-driven cross-request batching sessions.

Classic ``run(instances)`` batches only within one mini-batch: every call
builds a runtime, executes, and throws everything away.  A serving system
instead sees single requests arriving independently and wants to batch
*across* them (Zha et al. 2019, JIT dynamic batching).
:class:`InferenceSession` is that path: requests enter via :meth:`submit`
and return a future-style :class:`~repro.serve.request.RequestHandle`;
their DFG nodes accumulate in the session's persistent runtime, and a
:class:`~repro.serve.policy.FlushPolicy` decides when the backlog executes
as one batched round — so N submitted requests cost far fewer kernel
launches than N eager runs.

Two accumulation modes, chosen automatically from the program:

* programs without tensor-dependent control flow run their unbatched code at
  :meth:`submit` time, recording lazy DFG nodes immediately (true
  cross-request DFG accumulation);
* programs with tensor-dependent control flow cannot run ahead of
  synchronization points, so the session defers them: instances queue up and
  :meth:`flush` executes all of them as one fiber-interleaved batch.

Either way the flushed results are numerically identical to one
``run(instances)`` over the same requests.

Flushing is driven three ways: explicitly (:meth:`flush`), by the policy at
submit time (e.g. ``size(n)`` reached), or by deadline polling
(:meth:`poll`, for ``deadline``/``adaptive`` policies whose flush point is
a clock timestamp rather than a submit event).  All timing runs on the
session's pluggable :class:`~repro.serve.clock.Clock`, so tests and the
open-loop traffic benchmark use a simulated clock.

Under a simulated replay the session holds its loop's lane
(:mod:`repro.serve.sim`), and on a continuous lane its
:class:`~repro.serve.loop.DeviceTimeline`: instead of blocking
the clock for a round's device time, :meth:`flush` *launches* the round
onto the timeline (completion = the device's busy horizon plus the round's
device time) and only the host-side share serializes with intake — the
continuous-batching overlap where round ``k+1`` accumulates while round
``k`` executes.  Rounds still in flight are visible as
:attr:`in_flight_rounds` to the adaptive policy's waiting-cost model.
"""

from __future__ import annotations

import time
from collections import deque
from typing import TYPE_CHECKING, Any, Deque, Dict, List, Optional, Tuple

from ..runtime.executor import RunStats
from ..runtime.tensor import materialize_value
from .clock import Clock, WallClock
from .policy import FlushPolicy, ManualPolicy, make_flush_policy
from .request import RequestCancelled, RequestHandle, RequestStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..engine.engine import ExecutionEngine


class RoundAborted(RuntimeError):
    """Resolves the *other* handles of a batching round whose build or
    execution raised: their requests were innocent, but the round's shared
    lazy graph (or its execution) is unrecoverable, so they fail together
    with the original error as ``__cause__``."""


class InferenceSession:
    """Persistent session batching independently submitted requests.

    Parameters
    ----------
    engine:
        The execution engine the session batches through.
    policy:
        Flush policy: a registry name (``"manual"``, ``"size"``,
        ``"deadline"``, ``"adaptive"``), or an already constructed
        :class:`~repro.serve.policy.FlushPolicy` instance (which must not be
        shared across sessions).  Defaults to manual flushing.
    policy_args:
        Keyword arguments for the policy factory when ``policy`` is a name
        (e.g. ``{"ms": 5.0}`` for ``"deadline"``).
    clock:
        Time source for deadlines and per-request statistics; defaults to
        the wall clock.  Pass a
        :class:`~repro.serve.clock.SimulatedClock` for reproducible
        deadline semantics.
    """

    def __init__(
        self,
        engine: "ExecutionEngine",
        *,
        policy: Any = None,
        policy_args: Optional[Dict[str, Any]] = None,
        clock: Optional[Clock] = None,
    ) -> None:
        self.engine = engine
        self.clock = clock or WallClock()
        if policy is None:
            policy = ManualPolicy()
        elif isinstance(policy, str):
            policy = make_flush_policy(policy, **(policy_args or {}))
        elif isinstance(policy, FlushPolicy):
            if policy_args:
                raise ValueError(
                    "policy_args only apply when policy is given by name"
                )
        else:
            raise TypeError(
                f"policy must be a registry name or FlushPolicy, "
                f"got {type(policy).__name__}"
            )
        self.policy: FlushPolicy = policy
        self._deferred = engine.program.uses_fibers
        self._pending: List[Tuple[RequestHandle, Any]] = []
        #: original submitted instances, parallel to ``_pending`` in
        #: DFG-accumulation mode (the tuple there holds the *lazy output*,
        #: not the input) — what :meth:`withdraw` hands a stealing loop so
        #: the request can be rebuilt in a sibling session.  Deferred mode
        #: already keeps instances in ``_pending`` itself.
        self._pending_instances: List[Any] = []
        #: request boundaries in the runtime's round sequence
        #: (DFG-accumulation mode): ``_seq_ends[i]`` is the sequence number
        #: right after pending request ``i`` recorded its DFG, so request
        #: ``i`` owns the pending rows in ``[_seq_ends[i-1], _seq_ends[i])``
        #: — requests are recorded one after another — which is the range
        #: :meth:`withdraw` drops
        self._seq_ends: List[int] = []
        #: instance id for node tagging: counts the round's submits, and
        #: keeps counting past a withdrawn request so a later submit never
        #: reuses a pending request's id (resets at every flush)
        self._instance_seq = 0
        self._entry = None
        self._build_s = 0.0
        self._round_started_at: Optional[float] = None
        self._last_submit_backdated = False
        self._last_arrival: Optional[float] = None
        #: the simulated trace driver's per-loop lane state while a replay
        #: runs, else None (see :mod:`repro.serve.sim`).  Inside a replay a
        #: flush prices host work as the simulated API time plus the lane's
        #: ``host_model`` — never measured wall time, so the same trace
        #: replays bit-for-bit — and, on a continuous lane, *launches* the
        #: round onto ``lane.timeline`` and occupies only ``lane`` (its
        #: ``busy_until``) instead of blocking the shared clock.  Outside a
        #: replay a flush charges measured host time to the clock.
        self.lane = None
        #: statistics of the most recent flush
        self.last_stats: Optional[RunStats] = None
        #: statistics of recent flushes (bounded — long-lived sessions use
        #: the running totals below for lifetime aggregates)
        self.history: Deque[RunStats] = deque(maxlen=1024)
        self.num_requests = 0
        self.num_flushes = 0
        #: requests withdrawn by :meth:`cancel` before their round formed
        self.num_cancelled = 0
        #: generation-layer SLO aggregates (time-to-first-step, inter-step
        #: gaps), attached by :class:`repro.generate.GenerationSession` when
        #: this session drives decode traffic; surfaced in
        #: ``Endpoint.summary()``
        self.generation_metrics = None
        #: requests executed across all flushes (mean batch size =
        #: ``requests_flushed / num_flushes``)
        self.requests_flushed = 0
        #: kernel launches (batched + gather) across all flushes
        self.total_kernel_calls = 0
        #: simulated device time across all flushes (ms)
        self.total_device_ms = 0.0

    # -- introspection ---------------------------------------------------------
    @property
    def pending_requests(self) -> int:
        return len(self._pending)

    @property
    def round_started_at(self) -> Optional[float]:
        """Arrival timestamp of the oldest pending request (None when the
        session is empty); the anchor for deadline policies."""
        return self._round_started_at

    @property
    def last_submit_backdated(self) -> bool:
        """Whether the most recent submit carried an explicit arrival
        timestamp behind the clock — i.e. the request queued while the
        session was busy (open-loop backlog).  Adaptive policies treat such
        submits as free to batch."""
        return self._last_submit_backdated

    @property
    def in_flight_rounds(self) -> int:
        """Rounds launched but not yet complete on the session's device
        timeline (always 0 outside a continuous-batching loop).  While
        rounds are in flight, waiting costs pending requests nothing —
        the device is busy anyway — which the adaptive policy exploits."""
        if self.lane is None:
            return 0
        return self.lane.timeline.in_flight(self.clock.now())

    def next_deadline(self) -> Optional[float]:
        """Clock timestamp by which the pending round must flush, or None
        (no pending requests, or the policy imposes no deadline)."""
        if not self._pending:
            return None
        return self.policy.next_deadline(self)

    # -- request intake --------------------------------------------------------
    def submit(
        self,
        instance: Any,
        at: Optional[float] = None,
        *,
        handle: Optional[RequestHandle] = None,
        deadline: Optional[float] = None,
    ) -> RequestHandle:
        """Accept one request; returns a handle resolved at the next flush.

        ``at`` overrides the request's arrival timestamp (open-loop traffic
        drivers pass the scheduled arrival time, which may lie behind the
        clock when the session was busy executing); it defaults to
        ``clock.now()``.  Arrival timestamps must be non-decreasing within
        a batching round: an explicit ``at`` earlier than an earlier
        pending request's arrival would silently corrupt ``queue_ms``, the
        round's deadline anchor and the adaptive policy's backlog
        detection, so it is rejected.  A flush resets the tracker, so
        replaying a fresh trace (timestamps starting over) on a long-lived
        session stays legal.

        ``handle`` lets a :class:`~repro.serve.loop.ServeLoop` pass in the
        handle it already returned to the producer at admission time; by
        default a fresh one is created.

        For programs without tensor-dependent control flow the request's
        unbatched program runs now, recording its DFG nodes into the shared
        lazy graph; execution is still deferred to the flush.
        """
        if at is None:
            now = self.clock.now()
            self._last_submit_backdated = False
        else:
            if self._last_arrival is not None and at < self._last_arrival:
                raise ValueError(
                    f"non-monotonic arrival timestamp: at={at!r} lies before "
                    f"the round's previous arrival ({self._last_arrival!r}); "
                    "arrival timestamps must never decrease within a round "
                    "(backdating behind the clock is fine, backdating behind "
                    "an earlier pending request corrupts queue_ms and "
                    "backlog detection)"
                )
            now = at
            self._last_submit_backdated = self.clock.now() > now
        self._last_arrival = now
        if handle is None:
            handle = RequestHandle(
                self._instance_seq, submitted_at=now, deadline=deadline
            )
        else:
            # loop-admitted (or stolen) handles already carry their
            # deadline; only the round position and arrival stamp move
            handle.index = self._instance_seq
            handle.submitted_at = now
        handle._origin = self
        self._instance_seq += 1
        if self._deferred:
            self._pending.append((handle, instance))
        else:
            entry = self._ensure_round()
            rt = self.engine.runtime
            build_start = time.perf_counter()
            rt.current_instance = handle.index
            try:
                raw = entry(instance)
            except BaseException as exc:
                # the shared lazy graph now holds this request's partial
                # nodes: the round is unrecoverable.  Abort it (failing the
                # innocent pending handles with RoundAborted) and re-raise
                # for the caller — under a ServeLoop only this request's
                # handle fails with the original error, and the loop (and
                # every other endpoint) keeps serving.
                self._abort_round(exc)
                raise
            self._build_s += time.perf_counter() - build_start
            self._pending.append((handle, raw))
            self._pending_instances.append(instance)
            self._seq_ends.append(rt.next_seq)
        self.num_requests += 1
        if self._round_started_at is None:
            self._round_started_at = now
        if self.policy.on_submit(self, now):
            self.flush(reason=self.policy.name)
        return handle

    # -- lifecycle -------------------------------------------------------------
    def cancel(self, handle: RequestHandle) -> bool:
        """Withdraw a pending request before its round flushes.

        The request's recorded DFG nodes are removed from the shared lazy
        graph (whole-request node slices — requests are independent, so
        round-mates are untouched and flush exactly as if the request had
        never been submitted), and the handle fails with
        :class:`~repro.serve.request.RequestCancelled`.

        Returns False when the handle is unknown to this session or its
        round already executed.  Not thread-safe against a concurrent
        flush: under a running :class:`~repro.serve.loop.ServeLoop` the
        loop thread owns the session, and only ``RequestHandle.cancel()``
        on a still-queued admission is always safe (the loop removes it
        before dispatch).
        """
        removed = self.withdraw(handle)
        if removed is None:
            return False
        self.num_cancelled += 1
        handle._fail(
            RequestCancelled("request cancelled before its round flushed")
        )
        return True

    def withdraw(self, handle: RequestHandle) -> Optional[Tuple[Any, float]]:
        """Remove a pending request from the round *without* resolving its
        handle, returning ``(instance, submitted_at)`` — the raw material a
        stealing loop needs to rebuild the request in a sibling session
        (cross-loop work-stealing), or for ``shed-oldest`` backpressure to
        fail it with the right error.  Returns None when the handle is
        unknown to this session or its round already executed.

        Exactly :meth:`cancel`'s sequence-range surgery (round-mates flush as
        if the request had never been submitted), minus the handle
        resolution.
        """
        index = None
        for i, (h, _) in enumerate(self._pending):
            if h is handle:
                index = i
                break
        if index is None or handle.done:
            return None
        if self._deferred:
            instance = self._pending[index][1]
            del self._pending[index]
        else:
            instance = self._pending_instances[index]
            start = self._seq_ends[index - 1] if index else 0
            end = self._seq_ends[index]
            del self._pending[index]
            del self._pending_instances[index]
            del self._seq_ends[index]
            if start < end:
                self.engine.runtime.drop_pending_slice(start, end)
        if self._pending:
            self._round_started_at = self._pending[0][0].submitted_at
        else:
            self._round_started_at = None
            # an emptied round may legally restart its trace timestamps
            self._last_arrival = None
        return instance, handle.submitted_at

    #: handles pending in the session (oldest first) — what ``shed-oldest``
    #: backpressure and work-stealing inspect
    @property
    def pending_handles(self) -> List[RequestHandle]:
        return [h for h, _ in self._pending]

    # the RequestHandle.cancel() delegation target
    _cancel_handle = cancel

    # -- execution -------------------------------------------------------------
    def poll(self) -> Optional[List[Any]]:
        """Flush if the policy's deadline has passed; otherwise do nothing.

        Deadline-style policies flush on a clock timestamp rather than a
        submit event, so something must ask the session when time has moved
        on — serving loops call ``poll()`` periodically (or whenever the
        clock reaches :meth:`next_deadline`).  Returns the flushed outputs,
        or None when no flush was due.
        """
        deadline = self.next_deadline()
        if deadline is not None and self.clock.now() >= deadline:
            # attribute the flush to the policy that set the deadline (an
            # adaptive round aged out by max_wait_ms reports "adaptive",
            # not "deadline")
            return self.flush(reason=self.policy.name)
        return None

    def flush(self, reason: str = "manual") -> Optional[List[Any]]:
        """Schedule and execute everything submitted since the last flush.

        Returns the per-request outputs in submission order (and resolves
        every pending request handle).  Flushing an empty session is a
        cheap no-op returning None — it does not count as a flush, so
        periodic policy-driven flushing is safe.
        """
        if not self._pending:
            return None
        pending = self._take_round()
        flush_start = self.clock.now()
        # per-flush device accounting: sessions may share one device
        # simulator (multi-endpoint servers), so each round's counters start
        # from zero at the flush that executes it
        self.engine.device.reset()

        try:
            if self._deferred:
                # keep the device residency cache across fiber-program
                # rounds, exactly as _ensure_round does for the
                # DFG-accumulation path
                outputs, stats = self.engine.run(
                    [instance for _, instance in pending], release_residency=False
                )
            else:
                rt = self.engine.runtime
                exec_start = time.perf_counter()
                rt.trigger()
                outputs = [materialize_value(raw) for _, raw in pending]
                wall_s = self._build_s + (time.perf_counter() - exec_start)
                stats = rt.collect_stats(len(pending), wall_s)
                self._build_s = 0.0
                self._entry = None
        except BaseException as exc:
            # the popped handles would otherwise be lost (pending forever):
            # fail them, reset the round, and re-raise for the caller
            self._pending = pending
            self._abort_round(exc)
            raise

        stats.batch_size = len(pending)
        stats.flushed_at = flush_start
        stats.flush_reason = reason
        # split the round's latency into the host share (serial with intake:
        # DFG building, scheduling, dispatch and the CPU-side API time all
        # happen on the serving thread) and the device share (what a real
        # accelerator executes asynchronously).  A replay prices the host
        # share by its lane's model instead of measured wall time, so the
        # simulated timeline is a pure function of the trace.
        lane = self.lane
        if lane is None:
            host_ms = stats.host_total_ms + stats.api_time_ms
        else:
            host_ms = stats.api_time_ms
            if lane.host_model is not None:
                per_round, per_request = lane.host_model
                host_ms += per_round + per_request * len(pending)
        device_ms = stats.device_total_ms
        if lane is not None and lane.continuous:
            # continuous batching: charge only the host share to the clock,
            # then *launch* the round — it completes at the device's busy
            # horizon plus its own device time, while intake keeps running.
            # The round occupies only the lanes its per-device shares use
            # (one share per group member; the flush reset the device
            # counters at its start, so ``stats.per_device`` is exactly this
            # round's breakdown), so different members' rounds overlap.  The
            # host share occupies this loop's host lane only: the trace
            # driver delays the loop's next event until the lane frees
            # instead of advancing the shared clock
            launch_at = flush_start + host_ms / 1e3
            lane.busy_until = launch_at
            completed_at = lane.timeline.launch_round(
                launch_at,
                [(int(d["device"]), d["total_device_us"] / 1e6) for d in stats.per_device],
            )
            execute_ms = (completed_at - flush_start) * 1e3
        else:
            # caller-driven: the round's execution latency blocks the clock
            # (simulated clocks advance; the wall clock already moved on its
            # own)
            self.clock.charge((host_ms + device_ms) / 1e3)
            completed_at = self.clock.now()
            execute_ms = host_ms + device_ms
        launch_share = stats.kernel_calls / max(1, len(pending))
        for (handle, _), output in zip(pending, outputs):
            handle._complete(
                output,
                RequestStats(
                    submitted_at=handle.submitted_at,
                    flushed_at=flush_start,
                    completed_at=completed_at,
                    queue_ms=max(0.0, flush_start - handle.submitted_at) * 1e3,
                    execute_ms=execute_ms,
                    # queueing + execution by construction on every clock: a
                    # wall clock cannot charge() simulated device time, so
                    # completed_at - submitted_at would undercount there
                    latency_ms=max(0.0, flush_start - handle.submitted_at) * 1e3
                    + execute_ms,
                    batch_size=len(pending),
                    launch_share=launch_share,
                    flush_reason=reason,
                ),
            )
        self.last_stats = stats
        self.history.append(stats)
        self.num_flushes += 1
        self.requests_flushed += len(pending)
        self.total_kernel_calls += stats.kernel_calls
        self.total_device_ms += stats.device_total_ms
        self.policy.note_flush(self, stats)
        return outputs

    # -- context manager -------------------------------------------------------
    def __enter__(self) -> "InferenceSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.flush()

    # -- internals -------------------------------------------------------------
    def _abort_round(self, cause: BaseException) -> None:
        """Fail the current round's pending handles and reset the session
        to a clean empty round (the runtime's lazy graph is discarded, the
        device residency cache survives).  Called when a request's DFG
        build or the round's execution raised: the shared graph is
        unrecoverable, but the session — and everything else behind the
        same server — keeps serving."""
        pending = self._take_round()
        self._entry = None
        self._build_s = 0.0
        self.engine.runtime.reset(release_residency=False)
        for handle, _ in pending:
            if not handle.done:
                error = RoundAborted(
                    f"batching round aborted after {type(cause).__name__}: {cause}"
                )
                error.__cause__ = cause
                handle._fail(error)

    def _take_round(self) -> List[Tuple[RequestHandle, Any]]:
        """Empty the session's round bookkeeping and return its pending
        requests."""
        pending, self._pending = self._pending, []
        self._pending_instances = []
        self._seq_ends = []
        self._instance_seq = 0
        self._round_started_at = None
        # a fresh trace may legally restart its timestamps next round
        self._last_arrival = None
        return pending

    def _ensure_round(self):
        """Bind the program for a new batching round (first submit after a
        flush): reset the runtime and cache the per-instance entry.

        The device's residency cache survives the reset: storage arenas and
        parameters uploaded in earlier rounds stay device-resident, so
        cross-request batches in later rounds reuse resident parameters
        instead of re-transferring them.
        """
        if self._entry is None:
            self.engine.runtime.reset(release_residency=False)
            self._entry = self.engine.program.bind(self.engine.runtime, None)
        return self._entry
