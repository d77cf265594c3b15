"""The event-loop serving core: single-owner intake, continuous batching.

ACROBAT's cross-request batching only pays when requests actually co-arrive
in a round, and under live traffic that is determined by the *intake loop*,
not just the flush policy: a caller-driven ``submit``/``poll``/``flush``
choreography over one :class:`~repro.serve.session.InferenceSession` is
single-threaded, so while one round executes nothing can accept new
requests or launch the next partial round.  :class:`ServeLoop` closes that
gap.  It is the **single owner** of every endpoint session of a
:class:`~repro.serve.server.Server`:

* all session mutations (submit dispatch, deadline polling, flushing)
  happen on the loop, so sessions themselves stay lock-free;
* producers talk to the loop through a **bounded admission queue**
  (``max_pending`` + a ``backpressure`` policy of ``"block"`` /
  ``"reject"`` / ``"shed-oldest"``), making ``Server.submit`` safe to call
  from any number of threads;
* the loop drives deadline polling itself — no hand-rolled
  ``next_deadline``/``poll`` choreography in user code;
* **continuous batching**: when the flush policy fires, the loop launches
  the current partial round and keeps accepting — later arrivals accumulate
  into the next round while the device executes, and in-flight rounds are
  visible to the ``adaptive`` policy's waiting-cost model
  (:attr:`~repro.serve.session.InferenceSession.in_flight_rounds`).

A loop is driven in exactly one of two ways, one per
:class:`~repro.serve.clock.Clock` flavour; without either, ``submit``
raises :class:`LoopStopped`:

* **wall-clock** (:meth:`start`/:meth:`drain`/:meth:`shutdown`, behind
  :meth:`Server.run <repro.serve.server.Server.run>`): a real
  background thread waits on the admission queue with a timeout set to the
  earliest pending flush deadline.  Arrivals admitted while a round
  executes are timestamped at admission, so when the loop picks them up
  they are *backdated* — exactly the signal the adaptive policy's backlog
  detection batches for free.  A round closed by its deadline holds every
  request admitted by then: dispatching a picked-up batch takes real time
  (one DFG build per request), so when the deadline comes due meanwhile
  the thread empties the queue once more before it polls, and the round's
  size does not depend on how far through the queue the thread had got.
* **simulated** (:meth:`Server.replay <repro.serve.server.Server.replay>`):
  a deterministic replay over a
  :class:`~repro.serve.clock.SimulatedClock`, driven by the one simulated
  event driver (:class:`repro.serve.sim.TraceDriver` — a single loop is its
  k=1 case).  Execution is modelled asynchronously through a
  :class:`DeviceTimeline`: a flushed round's *host* share occupies the
  loop's host lane (intake is serial with host work) and its *device*
  share queues on the timeline — rounds pipeline back-to-back on the
  device while intake streams on.  The measured wall-clock host share
  never enters (a host model prices it), so replaying the same trace is
  bit-for-bit identical across runs and hosts.
"""

from __future__ import annotations

import heapq
import threading
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from .clock import Clock, SimulatedClock
from .request import RequestCancelled, RequestExpired, RequestHandle

#: admission-queue overflow policies
BACKPRESSURE_POLICIES = ("block", "reject", "shed-oldest")

#: ``active`` is set on every wall-clock loop thread.  An admission made
#: there (a decode step's done callback admitting its successor) never waits
#: on ``block`` backpressure: the thread that would make room is the one
#: waiting, and two loops waiting on each other would deadlock too.
_loop_thread = threading.local()


class BackpressureFull(RuntimeError):
    """Raised by ``submit`` under ``backpressure="reject"`` when the
    admission queue is at ``max_pending``."""


class RequestShed(RuntimeError):
    """Resolves a queued request's handle under ``backpressure="shed-oldest"``
    (a newer arrival pushed it out of the full admission queue)."""


class LoopStopped(RuntimeError):
    """Raised when submitting to a loop whose thread is not running: before
    the first ``Server.run()``, after a shutdown, or after the loop died
    (then carrying its original error as ``__cause__``).  Another
    ``Server.run()`` serves again; simulated clocks replay through
    ``Server.replay()`` instead."""


class DeviceTimeline:
    """The device's busy horizon: models asynchronous kernel execution.

    A real accelerator executes rounds asynchronously — launching returns
    immediately and rounds queue on the device.  The timeline captures just
    enough of that for continuous batching on the simulated clock: the
    timeline keeps one busy horizon per group member (a *lane*), and
    :meth:`launch_round` queues each of a round's per-device shares behind
    its lane's backlog (the device finishes earlier rounds first), so
    different members' rounds overlap.  Sessions consult :meth:`in_flight`
    for the adaptive policy; the loop consults :meth:`next_completion` to
    wake exactly when the device frees.
    """

    def __init__(self, start: float = 0.0, num_devices: int = 1) -> None:
        #: per-device busy horizons (one lane per group member)
        self._lanes: List[float] = [float(start)] * max(1, int(num_devices))
        #: rounds launched over the timeline's lifetime
        self.rounds_launched = 0
        self._completions: List[float] = []  # min-heap of undrained completions

    @property
    def num_devices(self) -> int:
        return len(self._lanes)

    @property
    def busy_until(self) -> float:
        """Timestamp at which every lane finishes everything launched so
        far (the whole device group goes idle)."""
        lanes = self._lanes
        return lanes[0] if len(lanes) == 1 else max(lanes)

    def launch_round(self, now: float, shares: List[Tuple[int, float]]) -> float:
        """Queue one round given its per-device shares — ``(device_index,
        duration_s)`` pairs — occupying only the lanes the round uses.  The
        members execute their shares concurrently, each behind its own
        lane's backlog; the round completes when the slowest member
        finishes (a round with no shares completes at ``now``).  Returns the
        round's completion timestamp."""
        now = float(now)
        lanes = self._lanes
        n = len(lanes)
        completion = now
        for device, duration_s in shares:
            lane = device % n
            end = max(now, lanes[lane]) + max(0.0, float(duration_s))
            lanes[lane] = end
            if end > completion:
                completion = end
        self.rounds_launched += 1
        heapq.heappush(self._completions, completion)
        return completion

    def in_flight(self, now: float) -> int:
        """Rounds launched but not yet complete at ``now``.  A round
        completing exactly at ``now`` counts until :meth:`pop_completions`
        drains it: the decode steps it produced are admitted at that
        instant, before the device-idle wakeup, and must keep accumulating
        for that launch."""
        return sum(1 for c in self._completions if c >= now)

    def next_completion(self) -> Optional[float]:
        """Earliest completion not yet drained by the loop (None if all
        drained)."""
        return self._completions[0] if self._completions else None

    def pop_completions(self, now: float) -> int:
        """Drain completion events at or before ``now``; returns how many."""
        popped = 0
        while self._completions and self._completions[0] <= now:
            heapq.heappop(self._completions)
            popped += 1
        return popped

    def __repr__(self) -> str:
        return (
            f"DeviceTimeline(busy_until={self.busy_until:.6f}, "
            f"launched={self.rounds_launched})"
        )


class _Admission:
    """One queued request: where it goes, what it is, when it arrived, and
    by when it must be dispatched (None = no deadline)."""

    __slots__ = ("name", "instance", "at", "handle", "deadline")

    def __init__(
        self,
        name: str,
        instance: Any,
        at: float,
        handle: RequestHandle,
        deadline: Optional[float] = None,
    ):
        self.name = name
        self.instance = instance
        self.at = at
        self.handle = handle
        self.deadline = deadline


class ServeLoop:
    """Single-owner event loop over a server's endpoint sessions.

    Constructed from a :class:`~repro.serve.server.Server` (the server does
    this itself — ``server.loop``) or from a plain ``sessions`` mapping
    (the ``per_endpoint`` topology's one-endpoint loops).
    In wall-clock mode the loop thread is the only thread that touches the
    sessions: a round is scheduled, placed, planned and executed at its
    flush, on that thread.

    Parameters
    ----------
    server:
        The server whose endpoints the loop owns (its clock is used).
    sessions:
        Alternative to ``server``: a name → session mapping (all sessions
        must share one clock, passed as ``clock``).
    max_pending:
        Bound on the admission queue; None (default) means unbounded.
    backpressure:
        What a full queue does to ``submit``: ``"block"`` waits for space,
        ``"reject"`` raises :class:`BackpressureFull`, ``"shed-oldest"``
        drops the oldest queued request (failing its handle with
        :class:`RequestShed`) to admit the new one.  On a serve-loop
        thread ``"block"`` is inert: the admission goes in over the bound.
    """

    def __init__(
        self,
        server: Any = None,
        *,
        sessions: Optional[Dict[str, Any]] = None,
        clock: Optional[Clock] = None,
        max_pending: Optional[int] = None,
        backpressure: str = "block",
        name: str = "loop0",
    ) -> None:
        if (server is None) == (sessions is None):
            raise ValueError("pass exactly one of server= or sessions=")
        if backpressure not in BACKPRESSURE_POLICIES:
            raise ValueError(
                f"unknown backpressure policy {backpressure!r}; "
                f"choose one of {', '.join(BACKPRESSURE_POLICIES)}"
            )
        if max_pending is not None and max_pending < 1:
            raise ValueError("max_pending must be a positive integer (or None)")
        self._server = server
        self._static_sessions = dict(sessions) if sessions is not None else None
        if server is not None:
            self.clock: Clock = server.clock
        else:
            if clock is None:
                raise ValueError("sessions= needs an explicit clock=")
            self.clock = clock
        self.max_pending = max_pending
        self.backpressure = backpressure

        self._cond = threading.Condition()
        self._queue: Deque[_Admission] = deque()
        self._thread: Optional[threading.Thread] = None
        self._stop = False
        self._drain_requested = False
        self._error: Optional[BaseException] = None
        # admission generation counters: drain() waits only for requests
        # admitted before it was called, so sustained producer traffic
        # cannot starve it.  _flushed_seq records how many admissions a
        # drain-flush pass has covered (shed/failed ones count as both
        # dispatched and flushed — they are resolved).
        self._admit_seq = 0
        self._dispatched_seq = 0
        self._flushed_seq = 0
        self._pass_count = 0  # completed drain-flush passes
        #: requests admitted over the loop's lifetime
        self.num_admitted = 0
        #: requests shed by the ``shed-oldest`` backpressure policy
        self.num_shed = 0
        #: requests rejected by the ``reject`` backpressure policy
        self.num_rejected = 0
        #: queued requests withdrawn via ``RequestHandle.cancel()``
        self.num_cancelled = 0
        #: requests whose deadline passed before dispatch
        self.num_expired = 0
        #: display name in multi-loop summaries ("loop0", "loop1", ...)
        self.name = name
        #: sibling loops of a multi-loop topology this loop may steal
        #: queued admissions from when it goes idle (set by the topology)
        self.peers: List["ServeLoop"] = []
        #: minimum queued backlog a victim must hold before an idle loop
        #: steals its newest half; None disables work-stealing
        self.steal_min: Optional[int] = 2
        #: how long an idle wall-clock loop sleeps between steal scans
        self.steal_interval_s = 0.005
        #: requests this loop stole from siblings / lost to siblings
        self.num_stolen_in = 0
        self.num_stolen_out = 0

    # -- session access --------------------------------------------------------
    def sessions(self) -> Dict[str, Any]:
        """Name → session mapping the loop owns (live view for servers, so
        endpoints added before :meth:`start` are picked up)."""
        if self._static_sessions is not None:
            return self._static_sessions
        return {name: ep.session for name, ep in self._server._endpoints.items()}

    def backlog(self) -> int:
        """Requests this loop still owes a flush: queued admissions plus
        its sessions' pending rounds (the router's load metric)."""
        return len(self._queue) + sum(
            s.pending_requests for s in self.sessions().values()
        )

    def _session(self, name: str):
        if self._server is not None:
            return self._server.endpoint(name).session
        try:
            return self._static_sessions[name]
        except KeyError:
            raise KeyError(f"unknown session {name!r}") from None

    # -- lifecycle -------------------------------------------------------------
    @property
    def running(self) -> bool:
        """True while the wall-clock loop thread is alive."""
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "ServeLoop":
        """Start the wall-clock loop thread (simulated clocks replay
        deterministically through ``Server.replay`` instead)."""
        if isinstance(self.clock, SimulatedClock):
            raise TypeError(
                "ServeLoop.start() drives real time; a SimulatedClock replays "
                "deterministically through Server.replay()"
            )
        if self.running:
            raise RuntimeError("serve loop already running")
        self._stop = False
        self._error = None
        self._thread = threading.Thread(
            target=self._run_wall, name="repro-serve-loop", daemon=True
        )
        self._thread.start()
        return self

    def drain(self) -> None:
        """Flush every backlog and wait until all requests admitted so far
        have completed.  Without a running loop there is nothing admitted
        to wait for: it returns at once (re-raising a dead loop's error).
        Raises :class:`RuntimeError` on the loop's own thread (a done
        callback, say), which would wait for itself."""
        self.refuse_own_thread("drain")
        with self._cond:
            target = self._admit_seq
            entry_pass = self._pass_count
            while (
                self._error is None
                and self.running
                and (self._flushed_seq < target or self._pass_count == entry_pass)
            ):
                # re-assert every wake: a concurrent drainer's flush pass
                # may have absorbed our request flag before our admissions
                # were dispatched — only a pass covering `target` (and at
                # least one full pass after entry, for work this loop did
                # not admit itself: admissions stolen from a sibling) counts
                self._drain_requested = True
                self._cond.notify_all()
                self._cond.wait(timeout=0.05)
        self._raise_if_dead()

    def shutdown(self) -> None:
        """Graceful stop: drain, then stop and join the loop thread.  A
        no-op when the loop never started; after a shutdown, ``submit``
        raises :class:`LoopStopped` until the loop is started again.
        Raises :class:`RuntimeError`, changing nothing, on the loop's own
        thread: the loop cannot join itself."""
        self.refuse_own_thread("shutdown")
        if self.running:
            try:
                self.drain()
            finally:
                with self._cond:
                    self._stop = True
                    self._cond.notify_all()
                self._thread.join()
        self._fail_queued(LoopStopped("serve loop shut down"))
        self._raise_if_dead()

    def refuse_own_thread(self, what: str) -> None:
        """Raise :class:`RuntimeError` when called on this loop's thread."""
        if threading.current_thread() is self._thread:
            raise RuntimeError(
                f"{what}() called on the serve loop's own thread (from a done "
                "callback?) would wait for the loop it blocks; call it from "
                "another thread"
            )

    def _raise_if_dead(self) -> None:
        if self._error is not None:
            raise LoopStopped("serve loop died") from self._error

    def _fail_queued(self, exc: BaseException) -> None:
        with self._cond:
            stale, self._queue = list(self._queue), deque()
            # failed admissions are resolved: account them dispatched and
            # flushed so no drain() generation is left waiting on them
            self._dispatched_seq += len(stale)
            self._flushed_seq += len(stale)
            self._cond.notify_all()
        for adm in stale:
            adm.handle._fail(exc)

    # -- intake ----------------------------------------------------------------
    def submit(
        self,
        name: str,
        instance: Any,
        at: Optional[float] = None,
        *,
        deadline: Optional[float] = None,
    ) -> RequestHandle:
        """Admit one request for session ``name``; returns its handle
        immediately.

        Thread-safe: the request enters the bounded admission queue
        (timestamped under the queue lock, so per-session arrival order is
        monotonic) and the loop thread dispatches it.  Without a running
        loop thread — before the first ``Server.run()`` as after a
        shutdown — it raises :class:`LoopStopped`.

        ``deadline`` is an absolute clock timestamp: a request still queued
        when its deadline passes is dropped at dispatch time, its handle
        failing with :class:`~repro.serve.request.RequestExpired` — it never
        enters a round, so round-mates are unaffected.
        """
        self._session(name)  # fail fast on unknown names
        with self._cond:
            if self.max_pending is not None:
                while len(self._queue) >= self.max_pending:
                    if self.backpressure == "reject":
                        self.num_rejected += 1
                        raise BackpressureFull(
                            f"admission queue full ({self.max_pending} pending)"
                        )
                    if self.backpressure == "shed-oldest":
                        shed = self._queue.popleft()
                        # a shed admission is resolved (exceptionally):
                        # count it dispatched+flushed so drain() never
                        # waits on it
                        self._dispatched_seq += 1
                        self._flushed_seq += 1
                        self._shed(shed.handle)
                        break
                    # block: wait for the loop to make space
                    if (
                        self._stop
                        or self._error is not None
                        or not self.running
                        or getattr(_loop_thread, "active", False)
                    ):
                        break
                    self._cond.wait(timeout=0.05)
            if self._stop or self._error is not None or not self.running:
                self._raise_if_dead()
                raise LoopStopped(
                    "serve loop is not running: Server.run() serves on the "
                    "wall clock, Server.replay() replays a trace on a "
                    "simulated clock"
                )
            # stamp under the lock: queue order == timestamp order, so the
            # monotonic-arrival invariant holds per session no matter how
            # many producer threads race
            stamp = self.clock.now() if at is None else at
            handle = RequestHandle(-1, submitted_at=stamp, deadline=deadline)
            handle._managed = True
            handle._origin = self
            self._queue.append(
                _Admission(name, instance, handle.submitted_at, handle, deadline)
            )
            self.num_admitted += 1
            self._admit_seq += 1
            self._cond.notify_all()
        return handle

    def _shed(self, handle: RequestHandle) -> None:
        """Resolve ``handle`` as the victim of ``shed-oldest`` backpressure
        (wall-clock admission and the simulated trace driver share the
        counter and the wording)."""
        self.num_shed += 1
        handle._fail(
            RequestShed(
                "request shed by backpressure: a newer arrival displaced it "
                f"from the full admission queue (max_pending={self.max_pending})"
            )
        )

    def _cancel_handle(self, handle: RequestHandle) -> bool:
        """Withdraw a still-queued admission (``RequestHandle.cancel()``
        delegation target).  Thread-safe; returns False once the loop has
        picked the request up — by then the session owns it (dispatch
        re-points ``handle._origin`` at the session, so a cancel that loses
        the race simply retargets there on the caller's next attempt)."""
        with self._cond:
            found = None
            for adm in self._queue:
                if adm.handle is handle:
                    found = adm
                    break
            if found is None:
                return False
            self._queue.remove(found)
            # a cancelled admission is resolved: count it dispatched and
            # flushed so drain() never waits on it (same as shed)
            self._dispatched_seq += 1
            self._flushed_seq += 1
            self.num_cancelled += 1
            self._cond.notify_all()
        handle._fail(
            RequestCancelled("request cancelled while queued for admission")
        )
        return True

    def next_deadline(self) -> Optional[float]:
        """Earliest pending flush deadline across the loop's sessions."""
        deadlines = [
            d
            for d in (s.next_deadline() for s in self.sessions().values())
            if d is not None
        ]
        return min(deadlines) if deadlines else None

    # -- wall-clock mode -------------------------------------------------------
    def _run_wall(self) -> None:
        _loop_thread.active = True
        try:
            while True:
                with self._cond:
                    deadline = self.next_deadline()
                    timeout = (
                        None
                        if deadline is None
                        else max(0.0, deadline - self.clock.now())
                    )
                    if timeout is None and self.steal_min is not None and self.peers:
                        # an idle loop with siblings wakes periodically to
                        # scan for stealable backlog instead of sleeping
                        # until its own next submit
                        timeout = self.steal_interval_s
                    if not self._queue and not self._drain_requested and not self._stop:
                        if timeout is None or timeout > 0:
                            self._cond.wait(timeout)
                    admissions = self._take_queue()
                    drain_requested = self._drain_requested
                    stopping = self._stop

                self._dispatch_wall(admissions)
                due = self.next_deadline()
                if due is not None and self.clock.now() >= due:
                    # a flush deadline came due while this thread was busy
                    # (executing the previous round, or building the DFGs
                    # of the batch above).  The round it closes takes every
                    # request admitted so far, as it does on the simulated
                    # clock, where dispatch costs no time — otherwise the
                    # round's size is a race between the producers and this
                    # thread's progress through the queue, and a closed
                    # loop of N clients flips between rounds of N and
                    # alternating k / N-k splits from one run to the next
                    with self._cond:
                        late = self._take_queue()
                    self._dispatch_wall(late)
                for session in self.sessions().values():
                    try:
                        session.poll()
                    except BaseException:
                        # the flush failed its round's handles and reset the
                        # session (InferenceSession.flush is exception-safe)
                        pass
                if (
                    not admissions
                    and not stopping
                    and self.steal_min is not None
                    and self.peers
                ):
                    self._try_steal_wall()
                if drain_requested or stopping:
                    # on the stopping iteration this also covers requests
                    # admitted in the shutdown window (after drain()
                    # completed but before _stop was set): they were just
                    # dispatched above and must not be left pending forever
                    for session in self.sessions().values():
                        try:
                            session.flush()
                        except BaseException:
                            pass  # round's handles already failed
                    with self._cond:
                        # this pass covered everything dispatched before it
                        self._flushed_seq = self._dispatched_seq
                        self._pass_count += 1
                        self._drain_requested = False
                        self._cond.notify_all()
                if stopping:
                    return
        except BaseException as exc:  # infrastructure failure: die loudly
            self._die(exc)

    def _take_queue(self) -> List[_Admission]:
        """Empty the admission queue (the caller holds the condition lock)
        and wake producers blocked on space."""
        admissions = list(self._queue)
        self._queue.clear()
        self._cond.notify_all()
        return admissions

    def _dispatch_one(self, adm: _Admission) -> None:
        """Dispatch one picked-up admission into its session — the body the
        wall-clock loop and the simulated trace driver share."""
        handle = adm.handle
        if handle.done:
            return  # resolved while queued (cancel/shed/steal race)
        if adm.deadline is not None and self.clock.now() > adm.deadline:
            # expired while queued: dropped before it joins any round, so
            # round-mates never see it
            self.num_expired += 1
            handle._fail(
                RequestExpired(
                    f"deadline {adm.deadline!r} passed while the request "
                    "was queued for admission"
                )
            )
            return
        # at= is the admission timestamp: if the loop was busy executing
        # when the request arrived, the session sees it backdated — the
        # continuous-batching backlog signal
        try:
            self._session(adm.name).submit(adm.instance, at=adm.at, handle=handle)
        except BaseException as exc:
            # one malformed request must not take down a multi-endpoint loop:
            # the session already aborted any poisoned round (failing its
            # handles with RoundAborted), so fail this request's handle
            # with the original error and keep serving
            if not handle.done:
                handle._fail(exc)

    def _dispatch_wall(self, admissions: List[_Admission]) -> None:
        """Dispatch picked-up admissions into their sessions (wall mode)."""
        for adm in admissions:
            self._dispatch_one(adm)
        if admissions:
            with self._cond:
                self._dispatched_seq += len(admissions)
                self._cond.notify_all()

    def _try_steal_wall(self) -> int:
        """Cross-loop work-stealing (wall mode): a fully idle loop takes the
        newest half of the most-backlogged sibling's admission queue and
        dispatches it locally.  Returns how many admissions were stolen.

        Stealing the *newest* admissions keeps the victim's oldest requests
        — the ones closest to dispatch — on their home loop, and
        guarantees the thief's sessions (empty by the idle precondition)
        see monotonically increasing arrival stamps.
        """
        mine = self.sessions()
        if any(s.pending_requests for s in mine.values()) or self._queue:
            return 0  # only a fully idle loop steals
        floor = max(1, int(self.steal_min or 1))
        best: Optional["ServeLoop"] = None
        best_len = floor - 1
        for peer in self.peers:
            if peer is self:
                continue
            n = len(peer._queue)  # racy scan; confirmed under the lock below
            if n > best_len:
                best, best_len = peer, n
        if best is None:
            return 0
        stolen: List[_Admission] = []
        with best._cond:
            eligible = [
                adm
                for adm in best._queue
                if adm.name in mine and not adm.handle.done
            ]
            if len(eligible) < floor:
                return 0
            for adm in eligible[-(len(eligible) // 2) or -1:]:
                best._queue.remove(adm)
                adm.handle._origin = self
                stolen.append(adm)
            # the thief resolves these now: account them dispatched+flushed
            # on the victim so its drain() generations never wait on them
            best._dispatched_seq += len(stolen)
            best._flushed_seq += len(stolen)
            best.num_stolen_out += len(stolen)
            best._cond.notify_all()
        self.num_stolen_in += len(stolen)
        self._dispatch_wall(stolen)
        return len(stolen)

    def _die(self, exc: BaseException) -> LoopStopped:
        """The loop-death path, shared by both modes: abort every session's
        round (failing implicated handles), record the error, and fail all
        queued admissions with ``LoopStopped`` carrying ``__cause__``.
        Returns the ``LoopStopped`` so simulated-mode callers can raise it.
        """
        for session in self.sessions().values():
            # abort (not just fail): _abort_round resolves the pending
            # handles AND resets the session to a clean empty round, so
            # a revived loop cannot re-flush stale failed handles
            try:
                session._abort_round(exc)
            except BaseException:
                pass
        with self._cond:
            self._error = exc
            self._drain_requested = False
            self._cond.notify_all()
        died = LoopStopped("serve loop died")
        died.__cause__ = exc
        self._fail_queued(died)
        return died

    def __repr__(self) -> str:
        mode = "running" if self.running else "idle"
        return (
            f"ServeLoop({mode}, queued={len(self._queue)}, "
            f"admitted={self.num_admitted}, backpressure={self.backpressure!r})"
        )
