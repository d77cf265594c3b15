"""Multi-device execution: device groups, interconnects and placement.

A :class:`~repro.runtime.device.DeviceSimulator` charges one accelerator.
Every layer above it — runtime, memory planner, serving — charges a
:class:`DeviceGroup` instead, and a single accelerator is the one-member
group:

* :mod:`repro.devices.group` — :class:`DeviceGroup`: N simulators with
  per-device counters/residency, group aggregation, and elapsed-vs-total
  device-time accounting (members run concurrently).
  :meth:`DeviceGroup.coerce` turns anything a ``device=`` argument takes (a
  simulator, a group, a member count or a spec list) into a group;
* :mod:`repro.devices.interconnect` — the :class:`Interconnect` cost model
  pricing device-to-device transfers (``pcie`` / ``nvlink`` presets), so
  cross-device gathers are charged rather than free;
* :mod:`repro.devices.placement` — :class:`PlacementPolicy` and its
  string-keyed registry (``single``, ``round_robin``, ``data_parallel``):
  *where* each scheduled batch executes, mirroring the scheduler-policy
  and flush-policy registries.

Entry points: ``compile_model(...).serve(policy, device=4,
placement="round_robin")`` opens a sharded serving session;
``Server(device=4, placement="data_parallel")`` shards a whole multi-model
deployment over one group.
"""

from .group import DeviceGroup
from .interconnect import INTERCONNECT_PRESETS, Interconnect
from .placement import (
    DataParallelPlacement,
    PlacementPolicy,
    RoundRobinPlacement,
    SinglePlacement,
    available_placements,
    make_placement,
    register_placement,
    unregister_placement,
)

__all__ = [
    "DeviceGroup",
    "Interconnect",
    "INTERCONNECT_PRESETS",
    "PlacementPolicy",
    "SinglePlacement",
    "RoundRobinPlacement",
    "DataParallelPlacement",
    "available_placements",
    "make_placement",
    "register_placement",
    "unregister_placement",
]
