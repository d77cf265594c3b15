"""Analytical GPU device simulator.

The paper evaluates on an Nvidia RTX 3070.  We cannot run CUDA here, so the
device side of every backend (ACROBAT, DyNet, eager, Cortex, VM) is charged
against the same analytical roofline model while NumPy produces the actual
numbers.  The model captures exactly the effects the paper's evaluation
hinges on:

* a fixed **launch overhead** per kernel, so launching fewer, larger batched
  kernels wins (auto-batching, fusion, grain-size coarsening);
* **memory-bandwidth-bound** execution for the small operators dominating
  these models, so fusion (which avoids round-tripping intermediates) and
  gather fusion (which avoids an extra copy of scattered operands) matter;
* **PCIe transfer costs** for host→device parameter/input uploads, so
  batching memory transfers matters;
* a CPU-side **API overhead** per launch/copy, reported as "CUDA API time"
  in Table 6.

Host-side time (DFG construction, scheduling) is *not* simulated — it is
measured as real Python wall-clock into the host buckets of the runtime's
:class:`~repro.runtime.trace.RoundTrace`, which also records every charged
kernel launch (per-kernel launch counts are a fold over it).

A :class:`DeviceSimulator` charges one accelerator and nothing more.  The
runtime, memory planner and serving layer never hold one directly: they
hold a :class:`~repro.devices.group.DeviceGroup`, and a bare simulator
handed to them is adopted, unmutated, as a one-member group
(:meth:`~repro.devices.group.DeviceGroup.coerce`), so its own counters
still show everything charged to it.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, replace
from typing import Dict, Optional, Sequence, Tuple

from ..kernels.batched import LaunchRecord


#: smallest host-residency table size that triggers a sweep of dead entries
_HOST_SWEEP_MIN = 1024


@dataclass
class GPUSpec:
    """Parameters of the simulated accelerator (RTX-3070-class defaults)."""

    name: str = "simulated-rtx3070"
    #: device-side latency charged per kernel launch (microseconds)
    launch_overhead_us: float = 5.0
    #: CPU-side CUDA API cost per launch (microseconds)
    api_overhead_us: float = 4.0
    #: device memory bandwidth (GB/s)
    mem_bandwidth_gbps: float = 380.0
    #: peak fp32 throughput (GFLOP/s)
    peak_gflops: float = 9000.0
    #: host<->device transfer bandwidth (GB/s)
    pcie_bandwidth_gbps: float = 11.0
    #: per-transfer overhead (microseconds)
    memcpy_overhead_us: float = 7.0
    #: extra cost factor for reading scattered (gather-fused) operands
    scattered_read_penalty: float = 1.35
    #: FLOPs needed to fully occupy the device; smaller launches run at a
    #: proportionally lower efficiency (they cannot fill all SMs)
    saturation_flops: float = 2.0e6
    #: floor on achievable efficiency for tiny kernels
    min_utilization: float = 0.03

    def __post_init__(self) -> None:
        for field_name in (
            "launch_overhead_us",
            "api_overhead_us",
            "mem_bandwidth_gbps",
            "peak_gflops",
            "pcie_bandwidth_gbps",
            "saturation_flops",
        ):
            value = getattr(self, field_name)
            if not value > 0:
                raise ValueError(f"GPUSpec.{field_name} must be positive, got {value!r}")
        if self.memcpy_overhead_us < 0:
            raise ValueError("GPUSpec.memcpy_overhead_us must be >= 0")
        if self.scattered_read_penalty < 1.0:
            raise ValueError("GPUSpec.scattered_read_penalty must be >= 1.0")
        if not 0.0 < self.min_utilization <= 1.0:
            raise ValueError("GPUSpec.min_utilization must be in (0, 1]")

    @classmethod
    def preset(cls, name: str, **overrides) -> "GPUSpec":
        """A named accelerator preset (``rtx3070``, ``a100``, ``laptop``),
        optionally with field overrides."""
        try:
            base = GPU_PRESETS[name]
        except KeyError:
            raise ValueError(
                f"unknown GPU preset {name!r}; available presets: "
                f"{', '.join(sorted(GPU_PRESETS))}"
            ) from None
        # always a copy: specs are mutable dataclasses and the presets must
        # stay pristine however callers tweak their instances
        return replace(base, **overrides)

    @classmethod
    def available_presets(cls) -> Tuple[str, ...]:
        return tuple(sorted(GPU_PRESETS))


#: named accelerator presets.  ``rtx3070`` is the paper's evaluation card
#: (and this simulator's historical default); ``a100`` is a datacenter-class
#: part (HBM bandwidth, NVLink-era interconnect pairs well with it);
#: ``laptop`` is a bandwidth-starved mobile part where device time dominates
#: even at reduced scale — the sharding benchmark uses it so multi-device
#: scaling is measured in the regime where sharding actually matters.
GPU_PRESETS: Dict[str, GPUSpec] = {
    "rtx3070": GPUSpec(name="simulated-rtx3070"),
    "a100": GPUSpec(
        name="simulated-a100",
        launch_overhead_us=5.0,
        api_overhead_us=4.0,
        mem_bandwidth_gbps=1555.0,
        peak_gflops=19500.0,
        pcie_bandwidth_gbps=25.0,
        memcpy_overhead_us=7.0,
        saturation_flops=8.0e6,
        min_utilization=0.02,
    ),
    "laptop": GPUSpec(
        name="simulated-laptop",
        launch_overhead_us=8.0,
        api_overhead_us=6.0,
        mem_bandwidth_gbps=45.0,
        peak_gflops=1200.0,
        pcie_bandwidth_gbps=6.0,
        memcpy_overhead_us=10.0,
        saturation_flops=5.0e5,
        min_utilization=0.05,
    ),
}


@dataclass
class DeviceCounters:
    """Accumulated simulated device activity."""

    kernel_time_us: float = 0.0
    gather_time_us: float = 0.0
    memcpy_time_us: float = 0.0
    api_time_us: float = 0.0
    #: time spent receiving peer (device-to-device) transfers over the
    #: group's interconnect; zero in a one-member group
    peer_time_us: float = 0.0
    num_kernel_launches: int = 0
    num_gather_launches: int = 0
    num_memcpy: int = 0
    num_peer_transfers: int = 0
    bytes_gathered: float = 0.0
    bytes_copied: float = 0.0
    bytes_peer: float = 0.0

    @property
    def total_device_us(self) -> float:
        """Total simulated device-side time."""
        return (
            self.kernel_time_us
            + self.gather_time_us
            + self.memcpy_time_us
            + self.peer_time_us
        )

    def as_dict(self) -> Dict[str, float]:
        return {
            "kernel_time_us": self.kernel_time_us,
            "gather_time_us": self.gather_time_us,
            "memcpy_time_us": self.memcpy_time_us,
            "api_time_us": self.api_time_us,
            "peer_time_us": self.peer_time_us,
            "num_kernel_launches": self.num_kernel_launches,
            "num_gather_launches": self.num_gather_launches,
            "num_memcpy": self.num_memcpy,
            "num_peer_transfers": self.num_peer_transfers,
            "total_device_us": self.total_device_us,
        }


class DeviceSimulator:
    """Charges simulated time for kernel launches, gathers and transfers."""

    def __init__(
        self,
        spec: Optional[GPUSpec] = None,
        schedule_table: Optional[Dict[str, float]] = None,
        default_schedule_quality: float = 0.9,
    ) -> None:
        if isinstance(spec, str):
            spec = GPUSpec.preset(spec)
        self.spec = spec or GPUSpec()
        #: per-kernel schedule quality in (0, 1]; produced by the
        #: auto-scheduler (§C.1), higher is better.
        self.schedule_table: Dict[str, float] = dict(schedule_table or {})
        self.default_schedule_quality = default_schedule_quality
        self.counters = DeviceCounters()
        #: host-array residency: ``id(array) -> weakref.ref(array)``.  A hit
        #: is *the same live object* (CPython recycles ids, so a dead or
        #: different referent is a miss and is charged again); arrays are
        #: held weakly, and dead entries are swept whenever the table has
        #: doubled since the last sweep, so a long-lived session stays
        #: bounded by twice its live working set.  A plain table instead of
        #: a ``WeakValueDictionary``: thousands of leaf inputs pass through
        #: per batch, and a ``KeyedRef`` plus a death callback each cost
        #: several times the lookup they protect.
        self._host_resident: Dict[int, "weakref.ref"] = {}
        self._host_sweep_at = _HOST_SWEEP_MIN

    # -- configuration --------------------------------------------------------
    def set_schedule_quality(self, kernel_name: str, quality: float) -> None:
        """Record the auto-scheduler's result for one kernel."""
        self.schedule_table[kernel_name] = float(quality)

    def reset(self) -> None:
        """Clear accumulated counters (keeps the schedule table and residency)."""
        self.counters = DeviceCounters()

    def reset_residency(self) -> None:
        """Forget which host arrays have been uploaded."""
        self._host_resident = {}
        self._host_sweep_at = _HOST_SWEEP_MIN

    # -- cost model -----------------------------------------------------------
    def _quality(self, kernel_name: str) -> float:
        return self.schedule_table.get(kernel_name, self.default_schedule_quality)

    def kernel_time_us(self, record: LaunchRecord, gather_fused: bool) -> float:
        """Simulated execution time of one batched kernel launch."""
        spec = self.spec
        bytes_total = record.bytes_read + record.bytes_written
        if gather_fused and record.scattered_bytes > 0:
            bytes_total += record.scattered_bytes * (spec.scattered_read_penalty - 1.0)
        mem_us = bytes_total / (spec.mem_bandwidth_gbps * 1e3)  # bytes / (GB/s) -> us
        utilization = max(
            spec.min_utilization, min(1.0, record.flops / spec.saturation_flops)
        )
        compute_us = record.flops / (spec.peak_gflops * 1e3 * utilization)
        return spec.launch_overhead_us + max(mem_us, compute_us) / self._quality(
            record.kernel_name
        )

    # -- charging -------------------------------------------------------------
    def launch(self, record: LaunchRecord, gather_fused: bool = True) -> float:
        """Charge one kernel launch; returns its simulated duration (us)."""
        t = self.kernel_time_us(record, gather_fused)
        self.counters.kernel_time_us += t
        self.counters.num_kernel_launches += 1
        self.counters.api_time_us += self.spec.api_overhead_us
        return t

    def gather(self, nbytes: float) -> float:
        """Charge an explicit memory-gather kernel (read scattered + write
        contiguous)."""
        spec = self.spec
        t = spec.launch_overhead_us + (2.0 * nbytes) / (spec.mem_bandwidth_gbps * 1e3)
        self.counters.gather_time_us += t
        self.counters.num_gather_launches += 1
        self.counters.api_time_us += spec.api_overhead_us
        self.counters.bytes_gathered += nbytes
        return t

    def memcpy(self, nbytes: float, batched_with: int = 0) -> float:
        """Charge a host<->device transfer.  ``batched_with`` > 0 indicates the
        transfer was coalesced with others and skips the per-call overhead."""
        spec = self.spec
        overhead = 0.0 if batched_with > 0 else spec.memcpy_overhead_us
        t = overhead + nbytes / (spec.pcie_bandwidth_gbps * 1e3)
        self.counters.memcpy_time_us += t
        self.counters.num_memcpy += 1
        self.counters.api_time_us += spec.api_overhead_us
        self.counters.bytes_copied += nbytes
        return t

    def _note_host(self, array) -> None:
        """Enter one host array into the residency table."""
        self._host_resident[id(array)] = weakref.ref(array)
        self._sweep_host_table()

    def _sweep_host_table(self) -> None:
        """Drop dead entries once the table has doubled since the last
        sweep."""
        table = self._host_resident
        if len(table) >= self._host_sweep_at:
            self._host_resident = table = {
                key: ref for key, ref in table.items() if ref() is not None
            }
            self._host_sweep_at = max(_HOST_SWEEP_MIN, 2 * len(table))

    def ensure_resident(self, array, batch_transfers: bool = True) -> float:
        """Upload a host array to the device once; subsequent calls are free
        while the array stays alive.  (Arenas need no entry: batched
        launches write them on the device, and the planner prices reads
        from them by ``arena.device_index``.)

        Returns the charged transfer time (0 when already resident).
        """
        if self.is_resident(array):
            return 0.0
        self._note_host(array)
        nbytes = float(getattr(array, "nbytes", 0))
        return self.memcpy(nbytes, batched_with=1 if batch_transfers else 0)

    def ensure_resident_many(self, arrays: Sequence, batch_transfers: bool = True) -> None:
        """:meth:`ensure_resident` for a whole column of host arrays in one
        call: every miss is charged exactly as :meth:`memcpy` would charge
        it, in column order (each counter accumulates the same terms in the
        same order, so the totals are bit-identical to per-array calls)."""
        table = self._host_resident
        spec = self.spec
        counters = self.counters
        overhead = 0.0 if batch_transfers else spec.memcpy_overhead_us
        pcie = spec.pcie_bandwidth_gbps * 1e3
        memcpy_time = counters.memcpy_time_us
        api_time = counters.api_time_us
        bytes_copied = counters.bytes_copied
        charged = 0
        for array in arrays:
            ref = table.get(id(array))
            if ref is not None and ref() is array:
                continue
            table[id(array)] = weakref.ref(array)
            nbytes = float(array.nbytes)
            memcpy_time += overhead + nbytes / pcie
            api_time += spec.api_overhead_us
            bytes_copied += nbytes
            charged += 1
        if charged:
            counters.memcpy_time_us = memcpy_time
            counters.api_time_us = api_time
            counters.bytes_copied = bytes_copied
            counters.num_memcpy += charged
            self._sweep_host_table()

    def note_resident(self, array) -> None:
        """Mark a host array as device-resident without charging a transfer.

        For data the device itself produced: a materialized output is a
        zero-copy view into an output arena, so when the caller feeds that
        array back as a later input (the recurrent-state path in
        ``repro.generate``) the bytes are already on the device and only the
        identity bookkeeping is needed.  The caller must keep the array
        alive — the table holds it weakly."""
        self._note_host(array)

    def is_resident(self, obj) -> bool:
        """Whether a host array is currently device-resident."""
        ref = self._host_resident.get(id(obj))
        return ref is not None and ref() is obj
