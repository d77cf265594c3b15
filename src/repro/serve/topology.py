"""The sharded serving front door: loop topologies and cross-loop
work-stealing.

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

An idle loop **steals work** from its most-backlogged sibling — the
newest half of the victim's queued admissions (and, in simulated mode,
its pending round tail via :meth:`InferenceSession.withdraw`) — so a
burst aimed at one loop spreads across the group.  Both modes survive:
wall-clock stealing runs in :meth:`ServeLoop._try_steal_wall`; simulated
stealing happens at deterministic event-loop points in the trace driver.

:meth:`Server.replay <repro.serve.server.Server.replay>` runs a trace
against *all* of a server's loops through the one simulated event driver
(:class:`repro.serve.sim.TraceDriver`): every loop's events — arrivals,
flush deadlines, device completions, host-gated dispatches — interleave
in global timestamp order on the shared
:class:`~repro.serve.clock.SimulatedClock`.  Each loop has its own
host lane, so host shares serialize per loop
instead of globally (the sharding win), and the same trace replays
bit-for-bit.  The ``single`` topology is the driver's k=1 case.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from ..utils import Registry
from .loop import ServeLoop

__all__ = [
    "LoopTopology",
    "SingleTopology",
    "PerDeviceTopology",
    "PerEndpointTopology",
    "register_topology",
    "make_topology",
    "available_topologies",
]


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
    ``run()``/``replay()``); after that :attr:`loops` holds the
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
    """A fresh device group mirroring the server's members: same specs,
    schedule table and interconnect, its *own* simulators — so loops
    running in their own threads never race a shared simulator's
    counters."""
    from ..devices.group import DeviceGroup

    group = server.device
    specs = [m.spec for m in group.devices]
    if len(specs) != width:
        specs = [specs[0]] * width
    primary = group.devices[0]
    return DeviceGroup(
        width,
        spec=specs,
        interconnect=group.interconnect,
        schedule_table=primary.schedule_table or None,
        default_schedule_quality=primary.default_schedule_quality,
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
        n = group.num_devices
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
                    name=f"loop{j}",
                )
            )
        return self._wire(loops)

