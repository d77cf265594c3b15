"""Execution-engine layer: the bridge between front-ends and the runtime.

Sits between the front-ends (AOT-compiled programs, the Relay-VM
interpreter, the DyNet baseline) and :mod:`repro.runtime`:

* :class:`ExecutionEngine` — owns runtime construction, device wiring,
  instance-argument binding and the timed run the statistics fold reads
  (the runtime itself resolves the scheduler and placement names);
* the scheduler-policy registry — string-keyed scheduling strategies
  (``inline_depth``, ``dynamic_depth``, ``agenda``, ``nobatch``,
  ``dynet``), extensible via :func:`register_scheduler`;
* :class:`~repro.engine.engine.EngineModel` — the ``serve``/``run`` entry
  points every model front-end shares, written once over ``make_engine``;
  ``serve`` opens a persistent cross-request batching session, which (with
  everything serving: flush policies, request futures, clocks,
  multi-model servers) lives in :mod:`repro.serve`.
"""

from .engine import ExecutionEngine, InstanceArgBinder, ProgramBinding
from .registry import (
    available_policies,
    make_scheduler,
    register_scheduler,
    unregister_scheduler,
)

__all__ = [
    "ExecutionEngine",
    "InstanceArgBinder",
    "ProgramBinding",
    "available_policies",
    "make_scheduler",
    "register_scheduler",
    "unregister_scheduler",
]
