"""ACROBAT reproduction: compile-time optimized auto-batching for dynamic
deep learning (Fegade et al., MLSys 2024).

Package map:

* :mod:`repro.ir` -- the Relay-like functional input language.
* :mod:`repro.analysis` -- static analyses (taint/parameter-reuse, hoisting,
  phases, duplication, structure).
* :mod:`repro.kernels` -- operator registry, static blocks, fusion, batched
  kernels, auto-scheduling.
* :mod:`repro.runtime` -- lazy DFGs, schedulers, batched executor, fibers,
  GPU simulator, and the round trace every run statistic is folded from.
* :mod:`repro.memory` -- arena-backed batched tensor storage and the
  ahead-of-execution memory planner (contiguity / gather classification).
* :mod:`repro.devices` -- multi-device execution: device groups (a single
  accelerator is the one-member group) with interconnect cost models, and
  the placement-policy registry (single / round_robin / data_parallel).
* :mod:`repro.engine` -- the execution-engine layer: runtime orchestration,
  the scheduler-policy registry.
* :mod:`repro.serve` -- the serving subsystem: flush policies, awaitable
  request futures, policy-driven cross-request batching sessions, the
  single-owner serving event loop (thread-safe bounded admission +
  continuous batching), multi-model servers, clocks and open-loop traffic
  generation.
* :mod:`repro.compiler` -- options, AOT Python codegen, compiled-model driver.
* :mod:`repro.vm` -- Relay-VM-style interpreter baseline + eager reference.
* :mod:`repro.baselines` -- DyNet-style dynamic batching, eager (PyTorch-like)
  execution, Cortex-style recursive batching.
* :mod:`repro.models` -- the seven evaluation models from the paper.
* :mod:`repro.data` -- synthetic datasets standing in for SST / XNLI.
* :mod:`repro.experiments` -- drivers regenerating every table and figure.
"""

from .compiler.options import CompilerOptions

__version__ = "0.1.0"


def compile_model(*args, **kwargs):
    """Compile an IR module into an executable model.

    Lazy re-export of :func:`repro.core.api.compile_model`.
    """
    from .core.api import compile_model as _impl

    return _impl(*args, **kwargs)


def reference_run(*args, **kwargs):
    """Run a model unbatched with the eager reference interpreter.

    Lazy re-export of :func:`repro.core.api.reference_run`.
    """
    from .core.api import reference_run as _impl

    return _impl(*args, **kwargs)


#: serving-layer names importable from the top level (lazy, so importing
#: ``repro`` stays cheap): ``repro.Server``, ``repro.SimulatedClock``, ...
_SERVE_EXPORTS = (
    "Server",
    "Endpoint",
    "FlushPolicy",
    "ServeLoop",
    "DeviceTimeline",
    "BackpressureFull",
    "RequestShed",
    "LoopStopped",
    "RoundAborted",
    "SimulatedClock",
    "WallClock",
    "available_flush_policies",
    "make_flush_policy",
    "register_flush_policy",
    "LoopTopology",
    "available_topologies",
    "make_topology",
    "register_topology",
)

#: multi-device names importable from the top level (lazy):
#: ``repro.DeviceGroup``, ``repro.Interconnect``, ``repro.make_placement``...
_DEVICES_EXPORTS = (
    "DeviceGroup",
    "Interconnect",
    "PlacementPolicy",
    "available_placements",
    "make_placement",
    "register_placement",
)


def __getattr__(name):
    if name in _SERVE_EXPORTS:
        from . import serve as _serve

        return getattr(_serve, name)
    if name in _DEVICES_EXPORTS:
        from . import devices as _devices

        return getattr(_devices, name)
    if name == "GPUSpec":
        from .runtime.device import GPUSpec

        return GPUSpec
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "CompilerOptions",
    "compile_model",
    "reference_run",
    "GPUSpec",
    "__version__",
    *_SERVE_EXPORTS,
    *_DEVICES_EXPORTS,
]
