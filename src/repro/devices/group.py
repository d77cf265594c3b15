"""A group of simulated devices behind one runtime.

:class:`DeviceGroup` owns N :class:`~repro.runtime.device.DeviceSimulator`\\ s
plus an :class:`~repro.devices.interconnect.Interconnect` cost model.  It
is the only device surface the runtime, memory planner and serving layer
know: one accelerator is the one-member group, so they are indifferent to
whether they charge one accelerator or a sharded group.

Semantics the group pins down:

* **per-device counters, group aggregation** — every member keeps its own
  :class:`~repro.runtime.device.DeviceCounters`; the group keeps none.  A
  run's ``RunStats.per_device`` reads each member's, and ``RunStats.device``
  is their fold, so per-device counter sums always equal the group totals.
* **elapsed vs total device time** — members execute a round concurrently,
  so the group's *elapsed* device time is the busiest member's total
  (``elapsed_device_us``), while ``total_device_us`` stays the sum of work
  performed.  Latency accounting uses the elapsed figure; throughput gains
  from sharding come exactly from that max-vs-sum gap.
* **priced peer transfers** — operand movement between members goes through
  :meth:`peer_transfer`, charged on the *destination* device via the
  interconnect model (a cross-device gather is never free).
* **per-device residency** — each member has its own residency cache, so
  parameters replicated across the group are uploaded (and charged) once
  per device, as they would be on real hardware.

Heterogeneous groups are supported: pass one spec per device
(``DeviceGroup([GPUSpec.preset("a100"), GPUSpec.preset("laptop")])``).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Union

from ..runtime.device import DeviceSimulator, GPUSpec
from .interconnect import Interconnect

SpecLike = Union[GPUSpec, str]


class DeviceGroup:
    """N simulated devices plus an interconnect, behind one device surface.

    Parameters
    ----------
    devices:
        The group's members: an integer count (devices built from ``spec``),
        a sequence of :class:`GPUSpec`/preset names (one device per spec —
        heterogeneous groups), or a sequence of already constructed
        :class:`DeviceSimulator`\\ s to adopt.
    spec:
        Spec for integer ``devices``: a :class:`GPUSpec`, a preset name, or
        a sequence of either (length must match ``devices``).
    interconnect:
        Peer-transfer cost model: an :class:`Interconnect` or a preset name
        (``"pcie"``, ``"nvlink"``).
    schedule_table / default_schedule_quality:
        Shared auto-scheduler results, applied to every member.
    """

    def __init__(
        self,
        devices: Union[int, Sequence[SpecLike], Sequence[DeviceSimulator]] = 1,
        *,
        spec: Union[SpecLike, Sequence[SpecLike], None] = None,
        interconnect: Union[Interconnect, str] = "pcie",
        schedule_table: Optional[Dict[str, float]] = None,
        default_schedule_quality: float = 0.9,
    ) -> None:
        if isinstance(interconnect, str):
            interconnect = Interconnect.preset(interconnect)
        self.interconnect = interconnect

        if isinstance(devices, int):
            if isinstance(spec, (list, tuple)):
                if len(spec) != devices:
                    raise ValueError(
                        f"got {len(spec)} specs for {devices} devices; "
                        f"heterogeneous groups need exactly one spec per device"
                    )
                devices = spec
            else:
                devices = [spec] * devices
        items = list(devices)
        if not items:
            raise ValueError("a device group needs at least one device")
        members: List[DeviceSimulator]
        if any(isinstance(d, DeviceSimulator) for d in items):
            if not all(isinstance(d, DeviceSimulator) for d in items):
                raise TypeError(
                    "a device group takes either DeviceSimulators or "
                    "specs/preset names, not a mixture"
                )
            # adopted simulators are NOT mutated (their owner may still
            # read their counters or adopt them elsewhere); the group
            # addresses members by position
            members = items
        else:
            # DeviceSimulator resolves preset names itself
            members = [
                DeviceSimulator(
                    spec=s,
                    schedule_table=schedule_table,
                    default_schedule_quality=default_schedule_quality,
                )
                for s in items
            ]
        self.devices: List[DeviceSimulator] = members

    @classmethod
    def coerce(
        cls,
        devices: Union[
            None, int, Sequence[SpecLike], Sequence[DeviceSimulator], DeviceSimulator, "DeviceGroup"
        ] = None,
        *,
        spec: Union[SpecLike, Sequence[SpecLike], None] = None,
        interconnect: Union[Interconnect, str, None] = None,
        schedule_table: Optional[Dict[str, float]] = None,
        default_schedule_quality: float = 0.9,
    ) -> "DeviceGroup":
        """Normalize a ``device=`` argument into a group: an existing group
        is adopted as-is, a bare :class:`DeviceSimulator` becomes the
        one-member group adopting it (unmutated: the caller keeps reading
        its counters), ``None`` a fresh one-member group, and anything else
        goes through the constructor.  The single coercion point for every
        layer accepting ``device=``.

        ``interconnect=None`` means "the pcie default" when building a new
        group; an *explicit* interconnect combined with an already built
        group is rejected rather than silently ignored (the group keeps its
        own interconnect).  Likewise a non-empty ``schedule_table`` (a tuned
        model's per-kernel qualities) is rejected when an adopted simulator
        or group was not built with the same table: adoption never mutates
        it, so accepting it would silently simulate every kernel at
        ``default_schedule_quality`` instead of its tuned quality."""
        if isinstance(devices, DeviceSimulator):
            devices = cls([devices], interconnect="pcie" if interconnect is None else interconnect)
        elif isinstance(devices, cls):
            if interconnect is not None:
                raise ValueError(
                    "interconnect= cannot be combined with an already built "
                    "DeviceGroup (the group keeps its own interconnect, "
                    f"{devices.interconnect.name!r}); construct the group "
                    "with the desired interconnect instead"
                )
        else:
            return cls(
                1 if devices is None else devices,
                spec=spec,
                interconnect="pcie" if interconnect is None else interconnect,
                schedule_table=schedule_table,
                default_schedule_quality=default_schedule_quality,
            )
        if schedule_table and any(
            member.schedule_table != dict(schedule_table) for member in devices.devices
        ):
            raise ValueError(
                "a tuned schedule_table cannot be combined with an already "
                "built DeviceSimulator or DeviceGroup that was not "
                "constructed with it (adoption never mutates it, so its "
                "kernels would silently run at default_schedule_quality); "
                "build it with DeviceSimulator(schedule_table="
                "model.schedule_table) or DeviceGroup(n, schedule_table="
                "model.schedule_table), or pass device as an int / spec "
                "list instead"
            )
        return devices

    # -- container surface -----------------------------------------------------
    def __len__(self) -> int:
        return len(self.devices)

    def __getitem__(self, index: int) -> DeviceSimulator:
        return self.devices[index]

    def __iter__(self) -> Iterator[DeviceSimulator]:
        return iter(self.devices)

    # -- device surface --------------------------------------------------------
    @property
    def num_devices(self) -> int:
        return len(self.devices)

    @property
    def spec(self) -> GPUSpec:
        """The primary (device-0) spec; placement heuristics read cost-model
        parameters here."""
        return self.devices[0].spec

    def device_for(self, index: int) -> DeviceSimulator:
        try:
            return self.devices[index]
        except IndexError:
            raise IndexError(
                f"batch placed on device {index}, but the group owns "
                f"{len(self.devices)} devices"
            ) from None

    def peer_transfer(self, src: int, dst: int, nbytes: float) -> float:
        """Charge one device-to-device transfer over the interconnect.

        The cost lands on the *destination* device (the consumer stalls on
        the incoming copy); same-device transfers are free.  Returns the
        simulated duration in microseconds.
        """
        if src == dst:
            return 0.0
        self.device_for(src)  # validate the source index too
        dst_dev = self.device_for(dst)
        t = self.interconnect.transfer_time_us(nbytes)
        counters = dst_dev.counters
        counters.peer_time_us += t
        counters.num_peer_transfers += 1
        counters.bytes_peer += float(nbytes)
        counters.api_time_us += dst_dev.spec.api_overhead_us
        return t

    def device_summary(self) -> Dict[str, object]:
        """Busy time, utilization and balance across the group.

        ``utilization`` is each member's busy time relative to the busiest
        member; ``balance`` is the least-busy / busiest ratio over the
        *participating* members (1.0 = the members sharing the work share
        it perfectly).  A member a placement left idle is reported by
        ``active_devices``, not by zeroing balance: ``single`` on a 4-group
        is one perfectly balanced active device, not a 0.00-balance group.
        Reflects counters since the last reset.
        """
        busy = [d.counters.total_device_us for d in self.devices]
        active = [b for b in busy if b > 0.0]
        top = max(busy)
        return {
            "count": len(self.devices),
            "active_devices": len(active),
            "interconnect": self.interconnect.name,
            "busy_us": busy,
            "utilization": [b / top if top > 0 else 0.0 for b in busy],
            "balance": (min(active) / top) if active else 1.0,
        }

    def reset(self) -> None:
        for d in self.devices:
            d.reset()

    def reset_residency(self) -> None:
        for d in self.devices:
            d.reset_residency()

    def note_resident(self, array, device: int = 0) -> None:
        """Mark a device-born host array resident on one member (default the
        primary).  A wrong member guess is safe: the next use on another
        member charges a correctly-priced upload there."""
        self.device_for(device).note_resident(array)

    def set_schedule_quality(self, kernel_name: str, quality: float) -> None:
        for d in self.devices:
            d.set_schedule_quality(kernel_name, quality)

    def __repr__(self) -> str:
        names = {d.spec.name for d in self.devices}
        kind = names.pop() if len(names) == 1 else "heterogeneous"
        return (
            f"DeviceGroup(n={len(self.devices)}, spec={kind!r}, "
            f"interconnect={self.interconnect.name!r})"
        )
