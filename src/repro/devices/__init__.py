"""Multi-device execution: device groups, interconnects and placement.

A single-accelerator runtime has one
:class:`~repro.runtime.device.DeviceSimulator`, one arena space and one
block of counters.  This package lifts that to a group of devices:

* :mod:`repro.devices.device` — the :class:`Device` protocol: the narrow
  surface the runtime, memory planner and serving layer require of an
  accelerator (a standalone simulator satisfies it as the one-member
  degenerate case);
* :mod:`repro.devices.interconnect` — the :class:`Interconnect` cost model
  pricing device-to-device transfers (``pcie`` / ``nvlink`` presets), so
  cross-device gathers are charged rather than free;
* :mod:`repro.devices.group` — :class:`DeviceGroup`: N simulators with
  per-device counters/residency, group aggregation, and elapsed-vs-total
  device-time accounting (members run concurrently);
* :mod:`repro.devices.placement` — :class:`PlacementPolicy` and its
  string-keyed registry (``single``, ``round_robin``, ``data_parallel``):
  *where* each scheduled batch executes, mirroring the scheduler-policy
  and flush-policy registries.

Entry points: ``compile_model(...).serve(policy, devices=4,
placement="round_robin")`` opens a sharded serving session;
``Server(devices=4, placement="data_parallel")`` shards a whole multi-model
deployment over one group.
"""

from .device import Device
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
    "Device",
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
