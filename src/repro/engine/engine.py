"""The unified execution engine.

Every front-end — the AOT-compiled program, the Relay-VM-style interpreter
and the DyNet baseline — used to hand-build an
:class:`~repro.runtime.executor.AcrobatRuntime`, bind per-instance
arguments, drive fibers and assemble :class:`~repro.runtime.executor.RunStats`
on its own.  :class:`ExecutionEngine` owns that machinery once:

* runtime construction: the device group the engine charges, handed to an
  :class:`~repro.runtime.executor.AcrobatRuntime`, which resolves the
  scheduler (``options.scheduler``) and the placement (``placement=``, a
  registry name or an instance) in one place;
* the per-instance execution loop, including the fiber scheduler for
  programs with tensor-dependent control flow, timed so the runtime's
  statistics fold can charge DFG construction the unaccounted wall time.

Front-ends supply a :class:`ProgramBinding` that knows how to wire a runtime
into the program and return a per-instance entry callable; they shrink to
thin adapters.  :meth:`EngineModel.serve` opens a persistent
:class:`~repro.serve.session.InferenceSession` over a fresh engine that
batches *across* independently submitted requests (over an engine already
built, construct ``InferenceSession(engine, ...)``).  Every engine charges a
:class:`~repro.devices.group.DeviceGroup` (one simulator is the one-member
group); ``device=N`` shards each scheduled round across N members.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..devices.group import DeviceGroup
from ..runtime.device import GPUSpec
from ..runtime.executor import AcrobatRuntime, ExecutionOptions, RunStats
from ..runtime.fibers import FiberScheduler
from ..runtime.tensor import materialize_value
from ..utils import ensure_recursion_limit


class ProgramBinding:
    """Adapter between a front-end program and the engine.

    ``bind`` wires ``runtime`` (and, for programs with tensor-dependent
    control flow, the fiber scheduler) into the program and returns the
    per-instance entry: a callable taking one instance and returning either
    the instance's (lazy) result or, when ``uses_fibers`` is true, a root
    generator for the fiber scheduler.
    """

    #: whether the program must run on interleaved fibers (§4.2)
    uses_fibers: bool = False

    def bind(
        self, runtime: AcrobatRuntime, fibers: Optional[FiberScheduler]
    ) -> Callable[[Any], Any]:
        raise NotImplementedError


class InstanceArgBinder:
    """Assembles the argument list of ``main`` for one instance.

    Bound (weight) parameters come from ``params``; every remaining ``main``
    parameter is a per-instance input taken from the instance mapping (or
    from the bare instance value when there is exactly one such input).
    Replaces the ``_instance_args`` copies the front-ends used to carry.
    """

    def __init__(self, main_param_names: Sequence[str], params: Mapping[str, Any]) -> None:
        self.main_param_names = list(main_param_names)
        self.params = params
        self.instance_param_names = [n for n in self.main_param_names if n not in params]

    def __call__(self, instance: Any) -> List[Any]:
        args: List[Any] = []
        for name in self.main_param_names:
            if name in self.params:
                args.append(self.params[name])
            elif isinstance(instance, Mapping):
                args.append(instance[name])
            elif len(self.instance_param_names) == 1:
                args.append(instance)
            else:
                raise TypeError(
                    f"instance input must be a mapping with keys "
                    f"{self.instance_param_names}"
                )
        return args


class ExecutionEngine:
    """Owns one runtime and executes a program's instances through it."""

    def __init__(
        self,
        program: ProgramBinding,
        kernels: Dict[int, Any],
        options: ExecutionOptions,
        *,
        device: Any = None,
        gpu_spec: Optional[GPUSpec] = None,
        schedule_table: Optional[Dict[str, float]] = None,
        default_schedule_quality: float = 0.9,
        placement: Any = None,
    ) -> None:
        self.program = program
        self.kernels = kernels
        self.options = options
        #: the device group this engine charges (see DeviceGroup.coerce)
        self.device = DeviceGroup.coerce(
            device,
            spec=gpu_spec,
            schedule_table=schedule_table,
            default_schedule_quality=default_schedule_quality,
        )
        self.runtime = AcrobatRuntime(kernels, options, self.device, placement=placement)
        # deep model recursion (trees, long sequences) needs a high recursion
        # limit; raised once here rather than on every call
        ensure_recursion_limit()

    @property
    def policy(self) -> str:
        """Name of the scheduler policy this engine runs."""
        return self.options.scheduler

    @property
    def num_devices(self) -> int:
        """How many members the engine's device group has."""
        return self.device.num_devices

    @property
    def placement(self) -> Optional[Any]:
        """The runtime's placement policy (None on the single-device path)."""
        return self.runtime._placement

    # -- batch execution -------------------------------------------------------
    def run(
        self, instances: Sequence[Any], release_residency: bool = True
    ) -> Tuple[List[Any], RunStats]:
        """Execute one mini-batch through the engine's runtime.

        Returns per-instance outputs (fully materialized) and the host/device
        breakdown of the run.  The runtime is reset first, so engines can be
        reused across runs; ``release_residency=False`` keeps the device's
        residency cache (persistent sessions reuse parameters uploaded in
        earlier rounds instead of re-transferring them).
        """
        rt = self.runtime
        rt.reset(release_residency=release_residency)

        run_start = time.perf_counter()
        fibers = FiberScheduler(rt.trigger, rt) if self.program.uses_fibers else None
        entry = self.program.bind(rt, fibers)

        raw_results: List[Any] = []
        if fibers is None:
            for i, instance in enumerate(instances):
                rt.current_instance = i
                raw_results.append(entry(instance))
        else:
            # a root does no work until stepped: the scheduler sets each
            # fiber's instance (its root's position) when it steps it
            raw_results = fibers.run([entry(instance) for instance in instances])
        rt.trigger()

        outputs = [materialize_value(r) for r in raw_results]
        total_s = time.perf_counter() - run_start
        return outputs, rt.collect_stats(len(instances), total_s)


class EngineModel:
    """What every executable model front-end shares: instance-argument
    binding plus the ``serve``/``run`` entry points, both expressed over the
    subclass's ``make_engine``.  Subclasses
    (:class:`~repro.compiler.driver.CompiledModel`,
    :class:`~repro.vm.interpreter.VMModel`) provide ``module``, ``params``
    and ``make_engine``."""

    @property
    def instance_binder(self) -> InstanceArgBinder:
        """Argument assembly for one instance (engine-layer binder)."""
        return InstanceArgBinder(
            [p.name_hint for p in self.module.main.params], self.params
        )

    def _instance_args(self, instance: Any) -> List[Any]:
        """Assemble the argument list of ``main`` for one instance."""
        return self.instance_binder(instance)

    def serve(
        self,
        policy: Any = "adaptive",
        *,
        clock: Any = None,
        device: Any = None,
        scheduler: Optional[str] = None,
        placement: Any = None,
        **policy_args: Any,
    ):
        """Open a policy-driven serving session over this model.

        The serving facade: ``compile_model(...).serve("deadline", ms=5)``
        returns an :class:`~repro.serve.session.InferenceSession` whose
        flush policy (by registry name or instance, with ``policy_args``)
        decides when the accumulated requests execute as one batched round
        (``serve("manual")`` flushes only when asked).
        ``scheduler`` optionally overrides the scheduler-policy name and
        ``clock`` the session's time source; ``device``/``placement`` shard
        the session over a device group (see :meth:`make_engine`) —
        ``serve("adaptive", device=4)`` serves one model across four
        simulated GPUs, request by request.
        """
        from ..serve.session import InferenceSession

        engine = self.make_engine(device, scheduler, placement=placement)
        return InferenceSession(
            engine, policy=policy, policy_args=policy_args or None, clock=clock
        )

    def run(
        self,
        instances: Sequence[Any],
        device: Any = None,
    ) -> Tuple[List[Any], RunStats]:
        """Run one mini-batch.

        Parameters
        ----------
        instances:
            One entry per batch instance: a mapping from per-instance input
            name to value, or the bare value when ``main`` has a single
            per-instance input.
        device:
            Optional externally constructed device simulator or group (lets
            callers share schedule tables across runs and read the
            simulator's own counters afterwards).

        Returns
        -------
        (outputs, stats):
            Per-instance outputs (fully materialized NumPy / ADT values) and
            the host/device breakdown of the run.
        """
        return self.make_engine(device).run(instances)
