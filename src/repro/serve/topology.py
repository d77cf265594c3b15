"""The sharded serving front door: loop topologies, SLO-aware admission,
and cross-loop work-stealing.

A single :class:`~repro.serve.loop.ServeLoop` is a scaling ceiling: every
flush's host share — DFG building, scheduling, placement, launch API calls
— serializes with intake on one event loop, so once the host is the
bottleneck, adding devices buys nothing.  This module shards the front
door.  A **loop topology** (registry, mirroring the scheduler/flush/
placement registries) decides how many loops a server runs and which
slice of the device group each owns:

* ``single`` — the historical one-loop server (default; bit-compatible);
* ``per_device`` — one loop per device-group member (or per
  ``members_per_loop``-sized slice), each endpoint replicated into every
  loop over its member slice, so N host lanes run in parallel in front of
  N device lanes;
* ``per_endpoint`` — one loop per endpoint, each on its own fresh device
  complement (loop threads never share a simulator).

Request admission becomes **SLO-aware**: requests carry a tenant, a
priority class (:data:`~repro.serve.policy.PRIORITY_CLASSES`) and a
deadline; per-tenant :class:`TokenBucket` quotas gate admission before a
request ever reaches a loop, and under backpressure the ``shed-slack``
policy sheds the lowest-priority request with the *most* deadline slack
(the one that can best afford a retry) instead of the oldest.  The
:class:`AdmissionController` keeps per-tenant/per-priority gauges
(admitted, shed, expired, SLO attainment) surfaced in
``Server.summary()``.

An idle loop **steals work** from its most-backlogged sibling — the
newest half of the victim's queued admissions (and, in simulated mode,
its pending round tail via :meth:`InferenceSession.withdraw`) — so a
burst aimed at one loop spreads across the group.  Both modes survive:
wall-clock stealing runs in :meth:`ServeLoop._try_steal_wall`; simulated
stealing happens at deterministic event-loop points in the trace driver.

:func:`run_topology_trace` replays a trace against *all* of a server's
loops through the one simulated event driver
(:class:`repro.serve.sim.TraceDriver`): every loop's events — arrivals,
flush deadlines, device completions, host-gated dispatches — interleave
in global timestamp order on the shared
:class:`~repro.serve.clock.SimulatedClock`.  Each loop has its own
host lane, so host shares serialize per loop
instead of globally (the sharding win), and the same trace replays
bit-for-bit.  ``ServeLoop.run_trace`` is the same driver over one loop.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..utils import Registry
from .loop import RequestShed, ServeLoop
from .request import (
    QuotaExceeded,
    RequestCancelled,
    RequestExpired,
    RequestHandle,
)
from .sim import TraceDriver

__all__ = [
    "TokenBucket",
    "AdmissionController",
    "LoopTopology",
    "SingleTopology",
    "PerDeviceTopology",
    "PerEndpointTopology",
    "register_topology",
    "make_topology",
    "available_topologies",
    "run_topology_trace",
]


# -- per-tenant quotas ---------------------------------------------------------


class TokenBucket:
    """Deterministic token-bucket rate limiter on the serving clock.

    Refills continuously at ``rate`` tokens/second up to ``burst``;
    :meth:`try_take` is a pure function of the call timestamps, so quota
    decisions replay bit-for-bit on a simulated clock."""

    __slots__ = ("rate", "burst", "tokens", "_last")

    def __init__(self, rate: float, burst: float) -> None:
        if rate <= 0 or burst <= 0:
            raise ValueError("token-bucket rate and burst must be positive")
        self.rate = float(rate)
        self.burst = float(burst)
        self.tokens = float(burst)
        self._last: Optional[float] = None

    def try_take(self, now: float) -> bool:
        """Consume one token if available at ``now``; False = over quota."""
        if self._last is not None and now > self._last:
            self.tokens = min(self.burst, self.tokens + (now - self._last) * self.rate)
        self._last = now if self._last is None else max(self._last, now)
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False

    def __repr__(self) -> str:
        return f"TokenBucket(rate={self.rate}, burst={self.burst}, tokens={self.tokens:.2f})"


def _blank_gauges() -> Dict[str, Any]:
    return {
        "submitted": 0,
        "completed": 0,
        "rejected": 0,
        "shed": 0,
        "expired": 0,
        "cancelled": 0,
        "failed": 0,
        "slo_met": 0,
        "per_priority": {},
    }


class AdmissionController:
    """SLO-aware admission: per-tenant quotas plus lifecycle gauges.

    ``quotas`` maps tenant name → ``(rate_rps, burst)`` (or a dict with
    ``rate``/``burst`` keys); tenants without a quota are never
    rate-limited.  Every tracked handle is classified exactly once when it
    resolves — completed, rejected (quota), shed (backpressure), expired
    (deadline), cancelled, or failed — and counted per tenant and per
    priority class, with SLO attainment (completed by the deadline) on
    top.  Thread-safe: wall-clock loops resolve handles from their own
    threads.
    """

    def __init__(self, quotas: Optional[Dict[str, Any]] = None) -> None:
        import threading

        self._lock = threading.Lock()
        self._buckets: Dict[str, TokenBucket] = {}
        for tenant, quota in (quotas or {}).items():
            if isinstance(quota, dict):
                rate, burst = quota["rate"], quota.get("burst", quota["rate"])
            else:
                rate, burst = quota
            self._buckets[tenant] = TokenBucket(rate, burst)
        self._tenants: Dict[str, Dict[str, Any]] = {}

    def admit(self, tenant: Optional[str], now: float) -> bool:
        """Token-bucket gate: False when the tenant's quota is exhausted at
        ``now`` (tenants without a configured quota always pass)."""
        if tenant is None:
            return True
        bucket = self._buckets.get(tenant)
        if bucket is None:
            return True
        with self._lock:
            return bucket.try_take(now)

    def track(self, handle: RequestHandle) -> RequestHandle:
        """Register one handle for lifecycle accounting; returns it."""
        tenant = handle.tenant or "anonymous"
        with self._lock:
            gauges = self._tenants.setdefault(tenant, _blank_gauges())
            gauges["submitted"] += 1
            prio = handle.priority or "unclassified"
            per = gauges["per_priority"].setdefault(
                prio,
                {"submitted": 0, "completed": 0, "shed": 0, "expired": 0, "slo_met": 0},
            )
            per["submitted"] += 1
        handle.add_done_callback(self._on_done)
        return handle

    def _on_done(self, handle: RequestHandle) -> None:
        tenant = handle.tenant or "anonymous"
        exc = handle._future.exception(0)
        with self._lock:
            gauges = self._tenants.setdefault(tenant, _blank_gauges())
            prio = handle.priority or "unclassified"
            per = gauges["per_priority"].setdefault(
                prio,
                {"submitted": 0, "completed": 0, "shed": 0, "expired": 0, "slo_met": 0},
            )
            if exc is None:
                gauges["completed"] += 1
                per["completed"] += 1
                met = handle.deadline is None or (
                    handle.stats is not None
                    and handle.stats.completed_at <= handle.deadline
                )
                if met:
                    gauges["slo_met"] += 1
                    per["slo_met"] += 1
            elif isinstance(exc, QuotaExceeded):
                gauges["rejected"] += 1
            elif isinstance(exc, RequestShed):
                gauges["shed"] += 1
                per["shed"] += 1
            elif isinstance(exc, RequestExpired):
                gauges["expired"] += 1
                per["expired"] += 1
            elif isinstance(exc, RequestCancelled):
                gauges["cancelled"] += 1
            else:
                gauges["failed"] += 1

    def summary(self) -> Dict[str, Dict[str, Any]]:
        """Per-tenant gauges; ``slo_attainment`` counts every non-cancelled
        submission against the SLO, so quota rejections and sheds are
        misses — the honest number under overload."""
        out: Dict[str, Dict[str, Any]] = {}
        with self._lock:
            for tenant, gauges in sorted(self._tenants.items()):
                entry = {
                    k: (dict(v) if isinstance(v, dict) else v)
                    for k, v in gauges.items()
                }
                entry["per_priority"] = {
                    p: dict(c) for p, c in gauges["per_priority"].items()
                }
                finished = gauges["submitted"] - gauges["cancelled"]
                entry["slo_attainment"] = (
                    gauges["slo_met"] / finished if finished else 1.0
                )
                out[tenant] = entry
        return out


# -- topology registry ---------------------------------------------------------

_TOPOLOGIES = Registry("loop topology", listing="available")


def register_topology(name: str):
    """Register a topology class under ``name`` (decorator), mirroring the
    scheduler/flush-policy/placement registries."""

    def deco(cls):
        _TOPOLOGIES.register(name, cls)
        cls.name = name
        return cls

    return deco


def make_topology(name: str, **kwargs: Any) -> "LoopTopology":
    """Instantiate the loop topology registered under ``name``."""
    return _TOPOLOGIES.make(name, **kwargs)


def available_topologies() -> Tuple[str, ...]:
    """Names of all registered loop topologies, sorted."""
    return _TOPOLOGIES.available()


class LoopTopology:
    """How a server's front door is sharded into serve loops.

    A topology is pure configuration until :meth:`build` materializes it
    against a server (``Server`` does this lazily at the first
    ``run()``/``run_trace()``); after that :attr:`loops` holds the
    server's loops and :meth:`route` maps an admitted request to its home
    loop (least backlog among the loops serving the endpoint, ties to the
    lowest loop index — deterministic).
    """

    name = "base"

    def __init__(self, steal_min: Optional[int] = 2) -> None:
        #: minimum sibling backlog before an idle loop steals (None: off)
        self.steal_min = steal_min
        self.loops: List[ServeLoop] = []

    # -- materialization -------------------------------------------------------
    def build(self, server: Any) -> List[ServeLoop]:
        raise NotImplementedError

    def _wire(self, loops: List[ServeLoop]) -> List[ServeLoop]:
        self.loops = loops
        if len(loops) > 1:
            for loop in loops:
                loop.peers = [lp for lp in loops if lp is not loop]
                loop.steal_min = self.steal_min
        return loops

    # -- routing ---------------------------------------------------------------
    def loops_for(self, name: str) -> List[ServeLoop]:
        """The loops serving endpoint ``name`` (topology order)."""
        return [lp for lp in self.loops if name in lp.sessions()]

    def route(self, name: str) -> ServeLoop:
        """Home loop for one request to endpoint ``name``: least backlog
        (:meth:`ServeLoop.backlog`), ties to the lowest loop index."""
        candidates = self.loops_for(name)
        if not candidates:
            raise KeyError(f"no loop serves endpoint {name!r}")
        return min(candidates, key=ServeLoop.backlog)  # stable: ties keep order

    def __repr__(self) -> str:
        return f"{type(self).__name__}(loops={len(self.loops)})"


@register_topology("single")
class SingleTopology(LoopTopology):
    """The historical one-loop front door (default): the server's own
    loop serves every endpoint over the whole device (group)."""

    def __init__(self, steal_min: Optional[int] = None) -> None:
        super().__init__(steal_min=steal_min)

    def build(self, server: Any) -> List[ServeLoop]:
        return self._wire([server.loop])


def _fresh_complement(server: Any, width: int) -> Any:
    """A fresh device (group) mirroring the server's members: same specs
    and schedule table, its *own* simulators — so loops running in their
    own threads never race a shared simulator's counters."""
    from ..devices.group import DeviceGroup
    from ..runtime.device import DeviceSimulator

    device = server.device
    members = list(device.devices) if hasattr(device, "devices") else [device]
    specs = [m.spec for m in members]
    if len(specs) != width:
        specs = [specs[0]] * width
    table = members[0].schedule_table or None
    quality = getattr(members[0], "default_schedule_quality", 0.9)
    if width == 1:
        return DeviceSimulator(
            spec=specs[0], schedule_table=table, default_schedule_quality=quality
        )
    interconnect = getattr(device, "interconnect", "pcie")
    return DeviceGroup(
        width,
        spec=specs,
        interconnect=interconnect,
        schedule_table=table,
        default_schedule_quality=quality,
    )


@register_topology("per_device")
class PerDeviceTopology(LoopTopology):
    """One loop per device-group member (or per ``members_per_loop``-sized
    slice): every endpoint is replicated into every loop over its slice,
    so N host lanes feed N device lanes in parallel — the sharded front
    door.  ``members_per_loop > 1`` keeps placement-sharded rounds inside
    each loop's sub-group (placement composes unchanged underneath)."""

    def __init__(
        self, members_per_loop: int = 1, steal_min: Optional[int] = 2
    ) -> None:
        super().__init__(steal_min=steal_min)
        if members_per_loop < 1:
            raise ValueError("members_per_loop must be a positive integer")
        self.members_per_loop = members_per_loop

    def build(self, server: Any) -> List[ServeLoop]:
        from ..devices.group import DeviceGroup

        group = server.device
        n = getattr(group, "num_devices", 1)
        k = self.members_per_loop
        if n % k:
            raise ValueError(
                f"per_device topology cannot slice {n} devices into loops of "
                f"{k} members (must divide evenly)"
            )
        n_loops = n // k
        if n_loops == 1:
            complements: List[Any] = [group]
        else:
            members = group.devices
            complements = []
            for j in range(n_loops):
                piece = members[j * k : (j + 1) * k]
                # adopt the members unmutated; the sub-group keeps the
                # parent's interconnect pricing.  Single members are wrapped
                # too: group addressing is positional, so a member adopted
                # from slot j of the parent serves as device 0 of its loop.
                complements.append(
                    DeviceGroup(piece, interconnect=group.interconnect)
                )
        return self._wire(_loops_over_complements(server, complements))


def _loops_over_complements(server: Any, complements: List[Any]) -> List[ServeLoop]:
    """Replicate every endpoint across ``complements`` and build one loop
    per complement owning that slice's replicas."""
    for ep in server._endpoints.values():
        ep._build_replicas(complements, clock=server.clock)
    template = server.loop
    loops = []
    for j in range(len(complements)):
        loops.append(
            ServeLoop(
                sessions={
                    name: ep.replicas[j] for name, ep in server._endpoints.items()
                },
                clock=server.clock,
                max_pending=template.max_pending,
                backpressure=template.backpressure,
                prepare=template.prepare,
                name=f"loop{j}",
            )
        )
    return loops


@register_topology("per_endpoint")
class PerEndpointTopology(LoopTopology):
    """One loop per endpoint, each over its own fresh device complement
    (``devices_per_loop`` wide, default: mirror the server's group).  The
    hard isolation topology: endpoints never contend for a loop or a
    simulator, at the cost of static device partitioning.  Loops share no
    endpoints, so work-stealing is structurally off."""

    def __init__(
        self,
        devices_per_loop: Optional[int] = None,
        steal_min: Optional[int] = None,
    ) -> None:
        super().__init__(steal_min=steal_min)
        self.devices_per_loop = devices_per_loop

    def build(self, server: Any) -> List[ServeLoop]:
        width = self.devices_per_loop or server.num_devices
        template = server.loop
        loops = []
        for j, (name, ep) in enumerate(sorted(server._endpoints.items())):
            complement = _fresh_complement(server, width)
            ep._build_replicas([complement], clock=server.clock)
            loops.append(
                ServeLoop(
                    sessions={name: ep.replicas[0]},
                    clock=server.clock,
                    max_pending=template.max_pending,
                    backpressure=template.backpressure,
                    prepare=template.prepare,
                    name=f"loop{j}",
                )
            )
        return self._wire(loops)


class TopologyRun:
    """Context manager returned by ``Server.run()`` on a multi-loop
    topology: exiting drains and shuts every loop down."""

    def __init__(self, server: Any) -> None:
        self._server = server

    def __enter__(self) -> "TopologyRun":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._server.shutdown()


# -- the deterministic multi-loop trace replay ---------------------------------


def run_topology_trace(
    server: Any,
    workload: Iterable[Tuple],
    *,
    deterministic: bool = True,
    host_model: Optional[Tuple[float, float]] = None,
    prepare: Optional[bool] = None,
) -> Dict[str, List[RequestHandle]]:
    """Deterministically replay a tagged open-loop trace against *all* of a
    server's loops, interleaving their events in global timestamp order
    (:class:`repro.serve.sim.TraceDriver` over the topology's loops).

    ``workload`` yields ``(arrival_time, endpoint, request)`` or
    ``(arrival_time, endpoint, request, meta)`` sorted by arrival time,
    where ``meta`` optionally carries ``tenant``/``priority``/``deadline``
    (absolute clock timestamp) and — for tests — ``loop`` (an explicit
    home-loop index overriding the router).

    Per arrival: quota gate (:class:`AdmissionController`) → router (least
    backlog) → per-loop backpressure (``reject``/``shed-oldest``/
    ``shed-slack`` resolve the victim's handle; ``block`` is inert in a
    deterministic trace) → the loop's host-gated dispatch queue.  A
    dispatch submits into the loop's session (flushes charge the loop's
    own host lane, not the shared clock, so sibling
    loops' host work overlaps); device shares land on each loop's own
    :class:`~repro.serve.loop.DeviceTimeline`.  Work-stealing runs at
    deterministic points: after intake at a timestamp quiesces and during
    the drain phase, a fully idle loop takes the newest half of the most
    backlogged sibling's backlog (dispatch queue tail first, then the
    pending round tail via :meth:`InferenceSession.withdraw`).

    Returns every admitted request's handle per endpoint, in arrival order
    — including handles resolved exceptionally (quota-rejected, shed,
    expired); filter with ``handle.failed``.  The same trace replays
    bit-for-bit: the timeline is a pure function of the trace and the
    device cost model.
    """
    return trace_driver(server, prepare=prepare).run(
        workload, deterministic=deterministic, host_model=host_model
    )


def trace_driver(
    server: Any, *, continuous: bool = True, prepare: Optional[bool] = None
) -> TraceDriver:
    """The simulated trace driver over a server's materialized topology
    (internal: shared by :func:`run_topology_trace` and the caller-driven
    ``traffic.replay_server``)."""
    topology = server.topology
    if not topology.loops:
        raise RuntimeError("topology not materialized; call through Server.run_trace")
    return TraceDriver(
        topology.loops,
        server.clock,
        route=topology.route,
        admission=server.admission,
        continuous=continuous,
        prepare=prepare,
    )
