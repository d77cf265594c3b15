"""Interconnect cost model: what a device-to-device transfer costs.

A :class:`~repro.devices.group.DeviceGroup` prices every cross-device
operand movement through one :class:`Interconnect`: a peer transfer costs a
fixed per-transfer latency plus the payload over the link bandwidth.  Two
presets bracket the realistic range:

* ``pcie`` — peer copies staged over the host PCIe fabric (PCIe-4-class:
  ~12 GB/s effective, several microseconds of setup);
* ``nvlink`` — direct GPU-to-GPU links (NVLink-class: ~200 GB/s, short
  setup).

The memory planner classifies operands whose producing arena lives on a
different device than the consuming batch as explicit peer transfers and
charges them here — cross-device gathers are *priced*, never free, which is
what makes placement-policy comparisons honest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass(frozen=True)
class Interconnect:
    """Analytical cost model of the device-to-device fabric."""

    name: str = "pcie"
    #: peer-transfer bandwidth (GB/s)
    bandwidth_gbps: float = 12.0
    #: per-transfer setup latency (microseconds)
    latency_us: float = 6.0

    def __post_init__(self) -> None:
        if not self.bandwidth_gbps > 0:
            raise ValueError(
                f"Interconnect.bandwidth_gbps must be positive, "
                f"got {self.bandwidth_gbps!r}"
            )
        if self.latency_us < 0:
            raise ValueError("Interconnect.latency_us must be >= 0")

    def transfer_time_us(self, nbytes: float) -> float:
        """Simulated duration of one peer transfer of ``nbytes`` bytes."""
        return self.latency_us + float(nbytes) / (self.bandwidth_gbps * 1e3)

    @classmethod
    def preset(cls, name: str) -> "Interconnect":
        """A named interconnect preset (``pcie``, ``nvlink``)."""
        try:
            return INTERCONNECT_PRESETS[name]
        except KeyError:
            raise ValueError(
                f"unknown interconnect preset {name!r}; available presets: "
                f"{', '.join(sorted(INTERCONNECT_PRESETS))}"
            ) from None


INTERCONNECT_PRESETS: Dict[str, Interconnect] = {
    "pcie": Interconnect(name="pcie", bandwidth_gbps=12.0, latency_us=6.0),
    "nvlink": Interconnect(name="nvlink", bandwidth_gbps=200.0, latency_us=2.0),
}
