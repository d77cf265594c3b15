"""ACROBAT runtime: lazy DFGs, batched execution, fibers and the device
simulator."""

from .device import DeviceCounters, DeviceSimulator, GPUSpec
from .executor import AcrobatRuntime, ExecutionOptions, RunStats
from .fibers import FiberHandle, FiberScheduler, FiberYield, run_sequential
from .scheduler import (
    AgendaScheduler,
    DynamicDepthScheduler,
    InlineDepthScheduler,
    NoBatchScheduler,
    ScheduledBatch,
    agenda_schedule,
    dynamic_depth_schedule,
)
from .tensor import Column, LazyTensor, materialize_value
from .trace import RoundTrace

__all__ = [
    "AcrobatRuntime",
    "ExecutionOptions",
    "RunStats",
    "DeviceSimulator",
    "DeviceCounters",
    "GPUSpec",
    "RoundTrace",
    "FiberScheduler",
    "FiberHandle",
    "FiberYield",
    "run_sequential",
    "InlineDepthScheduler",
    "DynamicDepthScheduler",
    "AgendaScheduler",
    "NoBatchScheduler",
    "ScheduledBatch",
    "agenda_schedule",
    "dynamic_depth_schedule",
    "Column",
    "LazyTensor",
    "materialize_value",
]
