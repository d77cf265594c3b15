"""The simulated trace driver: one deterministic event loop under every
serve-side replay.

:meth:`Server.replay <repro.serve.server.Server.replay>` — the one way to
replay an open-loop trace on a :class:`~repro.serve.clock.SimulatedClock`
— runs on :class:`TraceDriver`, and so do the decode steps of
:meth:`repro.generate.GenerationSession.generate`, which are scheduled calls
of a replay.  The event-ordering rules therefore exist exactly once:

* wakeups are ordered by ``(time, kind, loop)`` with kind 0 = scheduled
  call (:meth:`TraceDriver.call_at`: a decode step's completion, whose
  handler admits the successor step), 1 = device completion, 2 = flush
  deadline, 3 = host-gated dispatch.  Scheduled calls win ties, so a
  cohort's successor steps are all admitted before the same-instant
  device-idle launch takes them as one round; completions beat a
  same-instant deadline, so the device-idle launch happens first;
* a loop's host work serializes on its own *host lane*: a flush's host
  share pushes the lane's ``busy_until`` out, the loop's next event
  (and the dispatch of arrivals queued behind it) waits until the lane
  frees, and sibling loops' host work proceeds in parallel.  One loop is
  simply the k=1 case.  This is the model the wall-clock loop thread
  implements — pick up the whole queue once the host frees, dispatch,
  poll;
* work-stealing runs at deterministic points: after intake at a timestamp
  quiesces, and at drain points;
* the drain phase fires remaining events until every backlog resolves
  and no call is scheduled, force-flushing only policies that would wait
  forever (``manual``).

Every replay is deterministic: while it runs, each session holds its
loop's state as ``session.lane``, and a flush prices host work as the
simulated API time plus the replay's ``host_model``, never as measured
wall time.  **Caller-driven** replays (``Server.replay(continuous=False)``)
are the same driver on lanes marked not continuous: each flush blocks the
shared clock for the round's full latency — the historical
single-threaded choreography — while admission, deadline firing and
drain run through the identical code.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from .clock import SimulatedClock
from .loop import BackpressureFull, DeviceTimeline, ServeLoop, _Admission
from .request import RequestExpired, RequestHandle


class _LoopState:
    """One loop's simulated-mode machinery: its sessions, device timeline
    and host lane, plus the replay's host model and mode.  Each of the
    loop's sessions holds the state as its ``lane`` while the replay runs,
    and its flushes read everything they price from it: a continuous flush
    launches onto ``timeline`` and pushes ``busy_until`` (the host lane)
    out.  Charging the shared clock instead would serialize host work
    *across* loops — exactly the scaling ceiling the sharded front door
    removes.  Admissions waiting for the lane to free sit in the loop's own
    admission queue (``loop._queue``)."""

    __slots__ = (
        "loop", "index", "sessions", "timeline", "busy_until", "continuous", "host_model"
    )

    def __init__(self, loop: ServeLoop, index: int, start: float, continuous: bool) -> None:
        self.loop = loop
        self.index = index
        self.sessions: Dict[str, Any] = loop.sessions()
        # one lane per device of the widest session's group, so multi-device
        # rounds overlap lane-wise (single-device traces keep one lane)
        lanes = 1
        for session in self.sessions.values():
            lanes = max(lanes, session.engine.num_devices)
        self.timeline = DeviceTimeline(start=start, num_devices=lanes)
        #: the host lane: when this loop's host finishes its flush work
        self.busy_until = float(start)
        #: rounds launch onto the timeline (False: caller-driven, each
        #: flush blocks the shared clock for the round's full latency)
        self.continuous = continuous
        #: ``(per_round_ms, per_request_ms)``: a flush of B requests charges
        #: ``per_round + B * per_request`` ms of modelled host time on top
        #: of the simulated API time (None: the API time alone)
        self.host_model: Optional[Tuple[float, float]] = None

    def idle(self, now: float) -> bool:
        """Fully quiescent: nothing queued, pending, in flight, and the
        host lane free — the only state in which this loop may steal."""
        return (
            not self.loop._queue
            and self.busy_until <= now
            and self.timeline.in_flight(now) == 0
            and all(not s.pending_requests for s in self.sessions.values())
        )


def _unpack(item: Tuple) -> Tuple[float, str, Any, Dict[str, Any]]:
    t, name, instance, *meta = item
    return float(t), name, instance, (meta[0] if meta and meta[0] else {})


class TraceDriver:
    """Deterministic discrete-event replay of a tagged open-loop trace over
    one or more :class:`~repro.serve.loop.ServeLoop`\\ s sharing a
    :class:`~repro.serve.clock.SimulatedClock`.

    Internal: built by ``Server.replay`` alone, never by user code.
    ``route`` maps an endpoint name to its home loop
    (``LoopTopology.route``; None means the single loop).
    ``continuous=False`` is the caller-driven mode: flushes block the
    shared clock instead of launching onto the loops' timelines.
    """

    def __init__(
        self,
        loops: List[ServeLoop],
        clock: Any,
        *,
        route: Optional[Callable[..., ServeLoop]] = None,
        continuous: bool = True,
    ) -> None:
        if not isinstance(clock, SimulatedClock):
            raise TypeError("a simulated trace replay needs a SimulatedClock")
        if any(loop.running for loop in loops):
            raise RuntimeError(
                "a trace replay needs exclusive ownership; a loop thread is "
                "running"
            )
        self.clock = clock
        self.route = route
        start = clock.now()
        self.states = [
            _LoopState(loop, i, start, continuous) for i, loop in enumerate(loops)
        ]
        self._by_loop = {st.loop: st for st in self.states}
        #: scheduled calls, a min-heap of ``(time, seq, fn)``
        self._calls: List[Tuple[float, int, Callable[[], Any]]] = []
        self._call_seq = itertools.count()

    # -- the drive -------------------------------------------------------------
    def run(
        self,
        workload: Iterable[Tuple],
        *,
        host_model: Optional[Tuple[float, float]] = None,
    ) -> Dict[str, List[RequestHandle]]:
        """Replay ``workload`` — ``(arrival_time, endpoint, request)`` or
        ``(..., meta)`` items — and return every request's handle per
        endpoint, in arrival order (failed admissions included).  An item
        no loop could admit is refused before the first admission.
        ``host_model`` prices each flush's host work (see
        :class:`_LoopState`); measured wall time never enters a replay."""
        clock = self.clock
        states = self.states
        items = [_unpack(item) for item in sorted(workload, key=lambda it: it[0])]
        for _, name, _, meta in items:
            self._check_home(name, meta.get("loop"))
        handles: Dict[str, List[RequestHandle]] = {}
        for st in states:
            st.host_model = host_model
            for session in st.sessions.values():
                session.lane = st
        try:
            last = len(items) - 1
            for i, (t, name, instance, meta) in enumerate(items):
                self.advance_until(t)
                clock.advance_to(t)
                handles.setdefault(name, []).append(
                    self.admit(t, name, instance, meta)
                )
                if i == last or items[i + 1][0] > t:
                    # intake at this timestamp has quiesced (a burst submits
                    # many requests at one instant): deterministic steal point
                    self.steal_pass()
            self.drain()
            # the trace ends when the last device round and host share finish
            horizon = clock.now()
            for st in states:
                horizon = max(horizon, st.timeline.busy_until, st.busy_until)
            clock.advance_to(horizon)
            for st in states:
                st.timeline.pop_completions(clock.now())
        finally:
            for st in states:
                for session in st.sessions.values():
                    session.lane = None
        return handles

    # -- admission -------------------------------------------------------------
    def _check_home(self, name: str, pin: Any) -> None:
        """Refuse an arrival no loop could admit: a ``loop`` pin that is not
        the int index of a loop serving ``name`` (ValueError), or an
        endpoint no loop serves (KeyError)."""
        states = self.states
        if pin is None:
            candidates = states if self.route is not None else states[:1]
            if not any(name in st.sessions for st in candidates):
                raise KeyError(f"no loop serves endpoint {name!r}")
            return
        if isinstance(pin, bool) or not isinstance(pin, int) or not 0 <= pin < len(states):
            raise ValueError(
                f"meta['loop'] must be a loop index in [0, {len(states)}) "
                f"(this server runs {len(states)} loop(s)), got {pin!r}"
            )
        if name not in states[pin].sessions:
            raise ValueError(
                f"meta['loop']={pin} pins endpoint {name!r} to "
                f"{states[pin].loop.name}, which does not serve it"
            )

    def admit(
        self, t: float, name: str, instance: Any, meta: Dict[str, Any]
    ) -> RequestHandle:
        """One arrival: router → deadline check → per-loop backpressure →
        the loop's host-gated dispatch queue."""
        deadline = meta.get("deadline")
        handle = RequestHandle(-1, submitted_at=t, deadline=deadline)
        pinned = meta.get("loop")
        if pinned is not None:
            state = self.states[pinned]
        elif self.route is None:
            state = self.states[0]
        else:
            state = self._by_loop[self.route(name)]
        if deadline is not None and t > deadline:
            state.loop.num_expired += 1
            handle._fail(
                RequestExpired(f"deadline {deadline!r} already passed at submit")
            )
            return handle
        if not self.shed_for_capacity(state, handle):
            return handle
        state.loop._queue.append(_Admission(name, instance, t, handle, deadline))
        state.loop.num_admitted += 1
        self.dispatch(state)
        return handle

    def shed_for_capacity(self, state: _LoopState, incoming: RequestHandle) -> bool:
        """Enforce ``max_pending`` over the loop's whole backlog (queued +
        pending round) with the loop's overflow policy (``block`` is inert
        in a deterministic trace).  Returns False when the *incoming*
        request was rejected (already resolved)."""
        loop = state.loop
        if loop.max_pending is None or loop.backpressure == "block":
            return True
        while loop.backlog() >= loop.max_pending:
            if loop.backpressure == "reject":
                loop.num_rejected += 1
                incoming._fail(
                    BackpressureFull(
                        f"admission queue full ({loop.max_pending} pending)"
                    )
                )
                return False
            # shed-oldest: enumerate the backlog oldest-first — pending
            # round first (its arrivals predate anything still queued),
            # then the queue
            candidates: List[Tuple[RequestHandle, Optional[str]]] = [
                (h, name)
                for name, session in sorted(state.sessions.items())
                for h in session.pending_handles
            ]
            candidates.extend((adm.handle, None) for adm in loop._queue)
            victim = min(
                range(len(candidates)),
                key=lambda i: (candidates[i][0].submitted_at, i),
            )
            handle, name = candidates[victim]
            if name is not None:
                state.sessions[name].withdraw(handle)
            else:
                for adm in loop._queue:
                    if adm.handle is handle:
                        loop._queue.remove(adm)
                        break
            loop._shed(handle)
        return True

    def dispatch(self, state: _LoopState) -> None:
        """Dispatch queued admissions while the loop's host lane is free (a
        dispatched submit that flushes re-busies the lane and stops the
        drain — later arrivals wait for the next dispatch event)."""
        queue = state.loop._queue
        while queue and state.busy_until <= self.clock.now():
            state.loop._dispatch_one(queue.popleft())

    # -- events ----------------------------------------------------------------
    def call_at(self, t: float, fn: Callable[[], Any]) -> None:
        """Schedule ``fn()`` at ``t``: the event source for work outside
        the loops — a decode step's completion, whose handler admits the
        successor step while the driver runs.  No host lane delays it (on
        the wall clock the handler runs on the loop thread, in the done
        callback of the step's handle)."""
        heapq.heappush(self._calls, (float(t), next(self._call_seq), fn))

    def next_event(self) -> Optional[Tuple[float, int, int]]:
        """Earliest pending wakeup: ``(time, kind, loop_index)`` with kind
        0 = scheduled call (loop index -1), 1 = device completion, 2 = flush
        deadline, 3 = host-gated dispatch.  Loop times are *effective*: a
        busy host lane delays its loop's events until it frees, which is
        exactly how the sharded front door overlaps host work across loops.
        Scheduled calls win ties (a cohort's successor steps join the
        same-instant device-idle launch), then completions (device-idle
        launch before a same-instant deadline)."""
        best: Optional[Tuple[float, int, int]] = (
            (self._calls[0][0], 0, -1) if self._calls else None
        )
        for st in self.states:
            free = st.busy_until
            queue = st.loop._queue
            candidates = (
                st.timeline.next_completion(),
                st.loop.next_deadline(),
                queue[0].at if queue else None,
            )
            for kind, when in enumerate(candidates, start=1):
                if when is not None:
                    event = (max(when, free), kind, st.index)
                    if best is None or event < best:
                        best = event
        return best

    def fire(self, event: Tuple[float, int, int]) -> None:
        when, kind, index = event
        clock = self.clock
        clock.advance_to(when)
        if kind == 0:
            heapq.heappop(self._calls)[2]()
            return
        state = self.states[index]
        if kind == 1:
            state.timeline.pop_completions(clock.now())
            # the device went idle: give continuous-batching policies the
            # chance to launch their backlog immediately.  Re-check before
            # every session — the first session's idle-launch re-busies the
            # shared device, and the remaining backlogs should then keep
            # accumulating (waiting is free again) rather than force small
            # partial rounds.
            for session in state.sessions.values():
                if state.timeline.in_flight(clock.now()) != 0:
                    break
                if session.pending_requests and session.policy.on_idle(
                    session, clock.now()
                ):
                    session.flush(reason=session.policy.name)
        elif kind == 2:
            for session in state.sessions.values():
                session.poll()
        else:
            self.dispatch(state)

    def advance_until(self, t: float) -> None:
        """Fire every wakeup scheduled at or before ``t``, in order."""
        while True:
            event = self.next_event()
            if event is None or event[0] > t:
                return
            self.fire(event)

    # -- work-stealing ---------------------------------------------------------
    def steal_pass(self) -> int:
        """Deterministic cross-loop work-stealing: every fully idle loop
        (lowest index first) takes the newest half of the most backlogged
        sibling's stealable backlog — dispatch-queue tail first, then the
        victim's largest shared pending round's tail (via ``withdraw``).
        Runs until no steal fires; returns the total stolen."""
        total = 0
        now = self.clock.now()
        changed = True
        while changed:
            changed = False
            for thief in self.states:
                floor = thief.loop.steal_min
                if floor is None or not thief.loop.peers or not thief.idle(now):
                    continue
                floor = max(1, int(floor))
                shared = set(thief.sessions)
                best: Optional[_LoopState] = None
                best_count = floor - 1
                for victim in self.states:
                    if victim is thief:
                        continue
                    count = sum(
                        1 for adm in victim.loop._queue if adm.name in shared
                    ) + sum(
                        victim.sessions[n].pending_requests
                        for n in victim.sessions
                        if n in shared
                    )
                    if count > best_count:
                        best, best_count = victim, count
                if best is None:
                    continue
                stolen = self._steal_from(best, thief, shared, best_count // 2 or 1)
                if stolen:
                    total += stolen
                    changed = True
        return total

    def _steal_from(
        self, victim: _LoopState, thief: _LoopState, shared: set, want: int
    ) -> int:
        """Move up to ``want`` of the victim's newest stealable requests to
        the thief and dispatch them there."""
        moved: List[_Admission] = []
        # newest first: the dispatch queue's tail is the newest backlog
        for adm in reversed(list(victim.loop._queue)):
            if len(moved) >= want:
                break
            if adm.name in shared and not adm.handle.done:
                victim.loop._queue.remove(adm)
                moved.append(adm)
        shared_names = [n for n in victim.sessions if n in shared]
        if len(moved) < want and shared_names:
            # then the tail of the most loaded shared pending round
            name = max(
                shared_names,
                key=lambda n: (victim.sessions[n].pending_requests, n),
            )
            session = victim.sessions[name]
            while len(moved) < want and session.pending_requests:
                handle = session.pending_handles[-1]
                out = session.withdraw(handle)
                if out is None:
                    break
                instance, at = out
                moved.append(_Admission(name, instance, at, handle, handle.deadline))
        if not moved:
            return 0
        victim.loop.num_stolen_out += len(moved)
        thief.loop.num_stolen_in += len(moved)
        # resubmit oldest-first: the thief is idle, so its sessions accept
        # the stolen arrivals' original (monotonic) timestamps
        thief.loop._queue.extend(sorted(moved, key=lambda a: a.at))
        self.dispatch(thief)
        return len(moved)

    # -- drain -----------------------------------------------------------------
    def drain(self) -> None:
        """After the last arrival: fire remaining wakeups until every
        backlog resolves and no call is scheduled, force-flushing only when
        nothing schedules a flush at all (``manual``-style policies leave a
        deadline-less backlog with an empty dispatch queue)."""
        states = self.states
        while self._calls or any(st.loop.backlog() for st in states):
            self.steal_pass()
            event = self.next_event()
            if event is not None:
                self.fire(event)
                continue
            for st in states:
                for session in st.sessions.values():
                    if session.pending_requests:
                        session.flush()
