"""Multi-model serving: named endpoints over one shared device (or group).

A production deployment rarely serves a single model.  :class:`Server`
multiplexes several compiled models behind named :class:`Endpoint`\\ s that
share one :class:`~repro.devices.group.DeviceGroup` — one accelerator by
default, or with ``device=N`` N members sharded by a placement policy —
and one :class:`~repro.serve.clock.Clock`: each endpoint owns a
policy-driven :class:`~repro.serve.session.InferenceSession` over its
model, and requests are routed by endpoint name.

Per-flush device counters stay isolated even on the shared device: every
session resets the device's counters at the flush that executes its round
(the residency cache — which parameters are already on the GPU — is shared
and persists, as it would on real hardware).

A server has exactly two drivers, one per clock:

* :meth:`Server.run` (wall clock) starts the
  :class:`~repro.serve.loop.ServeLoop` thread(s) of the server's topology;
  :meth:`Server.submit` is then thread-safe — requests enter the loop's
  bounded admission queue (``max_pending``/``backpressure``), all session
  work happens on the loop thread, and :meth:`Server.drain` /
  :meth:`Server.shutdown` (or leaving ``with server.run():``) finish it;
* :meth:`Server.replay` (simulated clock) replays a tagged open-loop
  trace deterministically.

Without a running loop, :meth:`Server.submit` raises
:class:`~repro.serve.loop.LoopStopped`.  Caller-driven batching of one
model lives on :class:`~repro.serve.session.InferenceSession`
(``submit``/``poll``/``flush``).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple, Union

from ..devices.group import DeviceGroup
from ..runtime.device import GPUSpec
from .clock import Clock, WallClock
from .loop import ServeLoop
from .policy import FlushPolicy
from .request import RequestHandle
from .session import InferenceSession
from .sim import TraceDriver
from .topology import TOPOLOGIES, LoopTopology
from .traffic import TrafficReport

#: endpoint names Server.summary() uses for its own aggregate entries
RESERVED_ENDPOINT_NAMES = ("devices", "loops")


class Endpoint:
    """One named model behind a server: a model plus its serving session.

    Sessions are lock-free and owned by the server's drivers — the loop
    thread under :meth:`Server.run`, the trace driver under
    :meth:`Server.replay` — so requests go through ``Server.submit``, not
    the endpoint."""

    def __init__(
        self,
        name: str,
        model: Any,
        session: InferenceSession,
        *,
        server: Any,
        policy: Any = None,
        policy_args: Optional[Dict[str, Any]] = None,
        scheduler: Optional[str] = None,
        placement: Any = None,
    ) -> None:
        self.name = name
        self.model = model
        self.session = session
        self._server = server
        #: one serving session per topology slice (a single-loop server has
        #: exactly one replica: the session itself)
        self.replicas: List[InferenceSession] = [session]
        # construction arguments, kept so a multi-loop topology can rebuild
        # the endpoint's session per device complement
        self._policy = policy
        self._policy_args = policy_args
        self._scheduler = scheduler
        self._placement = placement

    def _build_replicas(
        self, complements: List[Any], clock: Clock
    ) -> List[InferenceSession]:
        """Rebuild the endpoint's serving session once per device
        complement (multi-loop topologies).  Stateful policy/placement
        instances belong to exactly one session/engine, so replication
        requires registry names for both."""
        current = self.session.engine.device
        if len(complements) == 1 and complements[0] is current:
            self.replicas = [self.session]
            return self.replicas
        if len(complements) > 1:
            if isinstance(self._policy, FlushPolicy):
                raise TypeError(
                    "a flush-policy instance is stateful and belongs to one "
                    "session; multi-loop topologies need the policy by "
                    "registry name (add_endpoint(policy='adaptive', ...))"
                )
            if self._placement is not None and not isinstance(self._placement, str):
                raise TypeError(
                    "a placement instance is stateful and belongs to one "
                    "engine; multi-loop topologies need the placement by "
                    "registry name"
                )
        replicas = []
        for dev in complements:
            multi = dev.num_devices > 1
            engine = self.model.make_engine(
                device=dev,
                scheduler=self._scheduler,
                # a single-member slice has nothing to shard: placement only
                # rides along when the complement has several members
                placement=self._placement if multi else None,
            )
            replicas.append(
                InferenceSession(
                    engine,
                    policy=self._policy,
                    policy_args=dict(self._policy_args)
                    if self._policy_args
                    else None,
                    clock=clock,
                )
            )
        # a GenerationSession attached before the topology materialized
        # keeps reporting through the replica that replaces the session
        replicas[0].generation_metrics = self.session.generation_metrics
        self.replicas = replicas
        self.session = replicas[0]
        return replicas

    # -- introspection ---------------------------------------------------------
    @property
    def pending_requests(self) -> int:
        return sum(s.pending_requests for s in self.replicas)

    def summary(self) -> Dict[str, float]:
        """Aggregate serving statistics across the endpoint's lifetime
        (running totals — O(1) regardless of how long the endpoint has
        served, summed over every replica under a multi-loop topology),
        plus two point-in-time gauges a decode-heavy deployment watches:
        ``queue_depth`` (requests pending in the session round(s) plus
        admissions still queued at the loops for this endpoint) and
        ``oldest_pending_age_ms`` (how long the oldest such request has
        been waiting)."""
        replicas = self.replicas
        flushes = sum(s.num_flushes for s in replicas)
        requests_flushed = sum(s.requests_flushed for s in replicas)
        now = self.session.clock.now()
        oldest: Optional[float] = None
        for s in replicas:
            started = s.round_started_at
            if started is not None and (oldest is None or started < oldest):
                oldest = started
        queued = 0
        # every loop serving this endpoint (none before the topology
        # materializes: nothing can be queued yet)
        for loop in self._server.topology.loops_for(self.name):
            with loop._cond:
                for adm in loop._queue:
                    if adm.name == self.name:
                        queued += 1
                        if oldest is None or adm.at < oldest:
                            oldest = adm.at
        pending = self.pending_requests
        out = {
            "requests": sum(s.num_requests for s in replicas),
            "flushes": flushes,
            "pending": pending,
            "queue_depth": pending + queued,
            "oldest_pending_age_ms": (
                max(0.0, now - oldest) * 1e3 if oldest is not None else 0.0
            ),
            "cancelled": sum(s.num_cancelled for s in replicas),
            "kernel_launches": sum(s.total_kernel_calls for s in replicas),
            "mean_batch": (requests_flushed / flushes) if flushes else 0.0,
            "device_ms": sum(s.total_device_ms for s in replicas),
        }
        metrics = self.session.generation_metrics
        if metrics is not None:
            out.update(metrics.summary())
        return out

    def __repr__(self) -> str:
        return (
            f"Endpoint({self.name!r}, policy={self.session.policy!r}, "
            f"pending={self.pending_requests})"
        )


def _counters(endpoint: Endpoint) -> Tuple[int, int, int]:
    """An endpoint's running flush, flushed-request and kernel-launch
    totals over its replicas (a replay reports the deltas, so it stays
    correct however long the endpoint has already been serving)."""
    replicas = endpoint.replicas
    return (
        sum(s.num_flushes for s in replicas),
        sum(s.requests_flushed for s in replicas),
        sum(s.total_kernel_calls for s in replicas),
    )


class Server:
    """Routes requests to named endpoints sharing one device (group) and
    clock.

    ``device`` is anything :meth:`DeviceGroup.coerce
    <repro.devices.group.DeviceGroup.coerce>` takes: a
    :class:`~repro.runtime.device.DeviceSimulator` (the one-member group
    adopting it), a ready :class:`~repro.devices.group.DeviceGroup`, an
    integer member count or a list of :class:`GPUSpec`\\ s (heterogeneous
    groups).  With more than one member, endpoints shard
    their flush batches across the group under ``placement`` (a
    :mod:`repro.devices.placement` registry name or instance, default
    ``round_robin``), and cross-device operand traffic is priced by
    ``interconnect`` (``"pcie"``/``"nvlink"`` or an
    :class:`~repro.devices.interconnect.Interconnect`).

    ``max_pending`` bounds the admission queue of the server's
    :class:`~repro.serve.loop.ServeLoop` and ``backpressure`` picks the
    overflow policy (``"block"``/``"reject"``/``"shed-oldest"``), on the
    wall clock and in :meth:`replay` alike (a replay cannot block, so
    ``"block"`` is inert there, as it is for an admission made on a
    serve-loop thread).

    ``topology`` shards the front door (see :mod:`repro.serve.topology`):
    a registry name (``"single"``/``"per_device"``/``"per_endpoint"``, with
    ``topology_args``) or a ready :class:`LoopTopology` instance.  The
    topology materializes lazily at the first :meth:`run`/:meth:`replay`;
    endpoint registration must happen before that.
    """

    def __init__(
        self,
        device: Any = None,
        clock: Optional[Clock] = None,
        gpu_spec: Optional[GPUSpec] = None,
        *,
        placement: Any = None,
        interconnect: Union[str, Any, None] = None,
        max_pending: Optional[int] = None,
        backpressure: str = "block",
        topology: Union[str, LoopTopology] = "single",
        topology_args: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.device = DeviceGroup.coerce(device, spec=gpu_spec, interconnect=interconnect)
        if placement is not None and not isinstance(placement, str):
            # placement instances are stateful (e.g. data_parallel's learned
            # per-block work keyed by block id) and belong to exactly one
            # engine; a server-wide default is instantiated per endpoint, so
            # it must be a registry name
            raise TypeError(
                "the server-wide placement default must be a registry name; "
                "pass policy instances per endpoint via "
                "add_endpoint(placement=...)"
            )
        #: placement-policy default for endpoints (None: round_robin when
        #: the server owns a multi-device group)
        self.placement = placement
        self.clock = clock or WallClock()
        self._endpoints: Dict[str, Endpoint] = {}
        #: the event loop owning this server's intake and flush choreography
        #: (under a multi-loop topology, re-pointed at loop 0 once the
        #: topology materializes; ``topology.loops`` holds them all)
        self.loop = ServeLoop(self, max_pending=max_pending, backpressure=backpressure)
        if isinstance(topology, LoopTopology):
            self.topology = topology
        elif isinstance(topology, str):
            self.topology = TOPOLOGIES.make(topology, **(topology_args or {}))
        else:
            raise TypeError(
                "topology must be a registry name or a LoopTopology instance, "
                f"got {type(topology).__name__}"
            )
        self._topology_built = False

    @property
    def num_devices(self) -> int:
        return self.device.num_devices

    def _loops(self) -> List[ServeLoop]:
        """Every serve loop of the (materialized) topology; just the
        server's own loop before materialization."""
        return self.topology.loops if self._topology_built else [self.loop]

    def _materialize_topology(self) -> None:
        """Build the topology's loops against this server (idempotent).
        Happens lazily at the first ``run()``/``replay()``, so every
        ``add_endpoint`` call is visible to it."""
        if self._topology_built:
            return
        loops = self.topology.build(self)
        self._topology_built = True
        if loops and loops[0] is not self.loop:
            self.loop = loops[0]

    # -- endpoint management ---------------------------------------------------
    def add_endpoint(
        self,
        name: str,
        model: Any,
        policy: Any = "size",
        *,
        scheduler: Optional[str] = None,
        placement: Any = None,
        **policy_args: Any,
    ) -> Endpoint:
        """Register ``model`` under ``name``.

        ``model`` is any executable model exposing ``make_engine(device,
        scheduler, placement=)`` (:class:`~repro.compiler.driver.CompiledModel` or
        :class:`~repro.vm.interpreter.VMModel`); ``policy`` selects the
        endpoint's flush policy by name (with ``policy_args``) or instance,
        and ``scheduler`` optionally overrides the model's scheduler-policy
        name.  The endpoint's session runs on the server's shared device
        (group) and clock; ``placement`` overrides the server-wide
        placement policy for this endpoint.
        """
        if name in RESERVED_ENDPOINT_NAMES:
            raise ValueError(
                f"endpoint name {name!r} is reserved (Server.summary() "
                "reports its own aggregate entries under "
                f"{', '.join(RESERVED_ENDPOINT_NAMES)})"
            )
        if name in self._endpoints:
            raise ValueError(f"endpoint {name!r} already exists")
        if any(loop.running for loop in self._loops()):
            raise RuntimeError(
                "cannot add endpoints while the serve loop is running; "
                "register endpoints before Server.run() (or shutdown() first)"
            )
        if self._topology_built and len(self.topology.loops) > 1:
            raise RuntimeError(
                "cannot add endpoints after a multi-loop topology has "
                "materialized; register every endpoint before the first "
                "Server.run()/replay()"
            )
        resolved_placement = placement if placement is not None else self.placement
        engine = model.make_engine(
            device=self.device,
            scheduler=scheduler,
            placement=resolved_placement,
        )
        session = InferenceSession(
            engine, policy=policy, policy_args=policy_args or None, clock=self.clock
        )
        endpoint = Endpoint(
            name,
            model,
            session,
            server=self,
            policy=policy,
            policy_args=policy_args or None,
            scheduler=scheduler,
            placement=resolved_placement,
        )
        self._endpoints[name] = endpoint
        return endpoint

    def endpoint(self, name: str) -> Endpoint:
        try:
            return self._endpoints[name]
        except KeyError:
            raise KeyError(
                f"unknown endpoint {name!r}; registered endpoints: "
                f"{', '.join(sorted(self._endpoints)) or '(none)'}"
            ) from None

    @property
    def endpoints(self) -> Tuple[str, ...]:
        return tuple(sorted(self._endpoints))

    def __contains__(self, name: str) -> bool:
        return name in self._endpoints

    # -- request path ------------------------------------------------------------
    def submit(
        self,
        name: str,
        instance: Any,
        at: Optional[float] = None,
        *,
        deadline: Optional[float] = None,
    ) -> RequestHandle:
        """Route one request to endpoint ``name``.

        Needs a running loop (:meth:`run`); thread-safe.  The request
        enters the loop's bounded admission queue and the returned handle
        resolves when the loop flushes its round — ``await handle`` or
        ``handle.result(timeout=...)``.  Without a running loop it raises
        :class:`~repro.serve.loop.LoopStopped` (a simulated clock replays
        a whole trace through :meth:`replay` instead).  ``deadline``
        (absolute clock timestamp) expires the request if it is still
        queued when the deadline passes — see :meth:`ServeLoop.submit`.
        Under a multi-loop topology the request routes to the
        least-backlogged loop serving the endpoint.
        """
        self.endpoint(name)  # fail fast on unknown endpoints
        loops = self._loops()
        loop = self.topology.route(name) if len(loops) > 1 else self.loop
        return loop.submit(name, instance, at=at, deadline=deadline)

    # -- event-loop lifecycle ---------------------------------------------------
    def run(self) -> "Server":
        """Start every serving loop of the topology (the wall-clock
        driver): one thread per loop, each owning its sessions and driving
        their deadline polling and flushing.  From here on :meth:`submit`
        is thread-safe.  Returns the server, which is its own context
        manager (leaving it calls :meth:`shutdown`)::

            with server.run():
                handle = server.submit("trees", request)
                output = handle.result(timeout=5.0)

        Simulated clocks replay deterministically through :meth:`replay`
        instead.
        """
        self._materialize_topology()
        started = []
        try:
            for loop in self.topology.loops:
                loop.start()
                started.append(loop)
        except BaseException:
            for loop in started:
                loop.shutdown()
            raise
        return self

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()

    def replay(
        self,
        trace: Iterable[Tuple],
        *,
        continuous: bool = True,
        host_model: Optional[Tuple[float, float]] = None,
        calls: Iterable[Tuple[float, Callable[[TraceDriver], Any]]] = (),
    ) -> Dict[str, TrafficReport]:
        """Replay a tagged open-loop trace on the simulated clock through
        the one simulated event driver (:class:`repro.serve.sim.TraceDriver`)
        over every loop of the topology; returns one
        :class:`~repro.serve.traffic.TrafficReport` per endpoint that
        received traffic.  A single-session trace is a one-endpoint server.

        ``trace`` yields ``(arrival_time, endpoint, request)`` or ``(...,
        meta)`` items, where ``meta`` may carry a ``deadline`` (absolute
        clock time; a request still queued past it expires) and a ``loop``
        (the index of a loop serving the endpoint, overriding the
        least-backlog router).  A bad pin raises ``ValueError`` and an
        unknown endpoint ``KeyError``, both before the first admission.  Arrivals keep their true timestamps while a
        loop's host is busy, so queueing delay is measured without
        coordinated omission.

        ``continuous=True`` runs rounds on each loop's device timeline
        while intake streams on; ``continuous=False`` is the caller-driven
        choreography, where each flush blocks the clock for the round's
        full latency.  Measured host wall time never enters a replay, so the
        same trace replays bit-for-bit; ``host_model`` prices each flush's
        host work as ``(per_round_ms, per_request_ms)`` on top of the
        simulated API time.

        ``calls`` are ``(time, fn)`` pairs: ``fn(driver)`` runs at ``time``
        as a scheduled call of the replay's driver, before same-instant loop
        events, and may admit requests (``driver.admit``) and schedule
        further calls (``driver.call_at``).  This is how
        :meth:`GenerationSession.generate
        <repro.generate.GenerationSession.generate>` admits each sequence's
        steps; their handles are not in the returned reports.
        """
        items = sorted(trace, key=lambda item: item[0])
        self._materialize_topology()
        topology = self.topology
        driver = TraceDriver(
            topology.loops, self.clock, route=topology.route, continuous=continuous
        )
        for t, fn in calls:
            driver.call_at(t, lambda fn=fn: fn(driver))
        before = {name: _counters(ep) for name, ep in self._endpoints.items()}
        first_arrival: Dict[str, float] = {}
        for t, name, *_ in items:
            first_arrival.setdefault(name, t)
        handles = driver.run(items, host_model=host_model)
        reports = {}
        for name, hs in handles.items():
            after = _counters(self._endpoints[name])
            flushes, batched, launches = (a - b for a, b in zip(after, before[name]))
            reports[name] = TrafficReport.fold(
                hs, first_arrival[name], flushes=flushes, batched=batched,
                launches=launches,
            )
        return reports

    def drain(self) -> None:
        """Flush every backlog and wait for all admitted requests to
        complete; returns at once when no loop is running (nothing can be
        admitted then)."""
        loops = self._loops()
        for loop in loops:
            loop.refuse_own_thread("drain")
        for loop in loops:
            loop.drain()

    def shutdown(self) -> None:
        """Drain, then stop the serving loop(s) (no-op if never run).
        Refused, stopping nothing, on any loop's own thread."""
        loops = self._loops()
        for loop in loops:
            loop.refuse_own_thread("shutdown")
        first: Optional[BaseException] = None
        for loop in loops:
            try:
                loop.shutdown()
            except BaseException as exc:
                if first is None:
                    first = exc
        if first is not None:
            raise first

    # -- introspection ---------------------------------------------------------
    def summary(self) -> Dict[str, Dict[str, Any]]:
        """Per-endpoint aggregate serving statistics, plus two aggregate
        entries: ``devices`` (the group's utilization/balance breakdown —
        device counters are per flush, so of the most recent round) and
        ``loops`` (per-loop admission and work-stealing counters)."""
        out: Dict[str, Dict[str, Any]] = {
            name: ep.summary() for name, ep in sorted(self._endpoints.items())
        }
        out["devices"] = self.device.device_summary()
        out["loops"] = {
            loop.name: {
                "admitted": loop.num_admitted,
                "rejected": loop.num_rejected,
                "shed": loop.num_shed,
                "expired": loop.num_expired,
                "cancelled": loop.num_cancelled,
                "stolen_in": loop.num_stolen_in,
                "stolen_out": loop.num_stolen_out,
                "queued": len(loop._queue),
            }
            for loop in self._loops()
        }
        return out

    def __repr__(self) -> str:
        return f"Server(endpoints={list(self.endpoints)!r}, devices={self.num_devices})"
