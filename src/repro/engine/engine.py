"""The unified execution engine.

Every front-end — the AOT-compiled program, the Relay-VM-style interpreter
and the DyNet baseline — used to hand-build an
:class:`~repro.runtime.executor.AcrobatRuntime`, bind per-instance
arguments, drive fibers and assemble :class:`~repro.runtime.executor.RunStats`
on its own.  :class:`ExecutionEngine` owns that machinery once:

* runtime construction (device simulator wiring, profiler, scheduler-policy
  resolution through :mod:`repro.engine.registry`);
* the per-instance execution loop, including the fiber scheduler for
  programs with tensor-dependent control flow;
* statistics assembly (wall-clock DFG-construction accounting).

Front-ends supply a :class:`ProgramBinding` that knows how to wire a runtime
into the program and return a per-instance entry callable; they shrink to
thin adapters.  :meth:`ExecutionEngine.session` opens a persistent
:class:`~repro.serve.session.InferenceSession` that batches *across*
independently submitted requests.  ``devices=``/``placement=`` back the
engine with a :class:`~repro.devices.group.DeviceGroup` instead of a single
simulator and shard each scheduled round across it.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..runtime.device import DeviceSimulator, GPUSpec
from ..runtime.executor import AcrobatRuntime, ExecutionOptions, RunStats
from ..runtime.fibers import FiberScheduler
from ..runtime.profiler import ActivityProfiler
from ..runtime.tensor import materialize_value
from ..utils import ensure_recursion_limit
from .registry import make_scheduler


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
        options: Optional[ExecutionOptions] = None,
        *,
        policy: Optional[str] = None,
        device: Optional[DeviceSimulator] = None,
        gpu_spec: Optional[GPUSpec] = None,
        schedule_table: Optional[Dict[str, float]] = None,
        default_schedule_quality: float = 0.9,
        profiler: Optional[ActivityProfiler] = None,
        devices: Any = None,
        placement: Any = None,
        placement_args: Optional[Dict[str, Any]] = None,
        interconnect: Any = None,
    ) -> None:
        self.program = program
        self.kernels = kernels
        options = options or ExecutionOptions()
        if policy is not None:
            options = replace(options, scheduler=policy)
        if placement is not None and isinstance(placement, str):
            options = replace(options, placement=placement)
        self.options = options
        if devices is not None:
            # multi-device execution: build (or adopt) a device group
            from ..devices.group import DeviceGroup

            if device is not None:
                raise ValueError(
                    "pass either an explicit device or a devices= count/spec "
                    "list, not both (wrap your devices in a DeviceGroup and "
                    "pass it as device= instead)"
                )
            device = DeviceGroup.coerce(
                devices,
                spec=gpu_spec,
                interconnect=interconnect,
                schedule_table=schedule_table,
                default_schedule_quality=default_schedule_quality,
            )
        self.device = device or DeviceSimulator(
            spec=gpu_spec,
            schedule_table=schedule_table,
            default_schedule_quality=default_schedule_quality,
        )
        # placement: an instance is used as-is; a name (possibly from
        # options.placement) resolves through the registry; a multi-device
        # group with no explicit choice shards requests round-robin
        if placement is None or isinstance(placement, str):
            name = self.options.placement
            if name is None and self.num_devices > 1:
                name = "round_robin"
            if name is not None:
                from ..devices.placement import make_placement

                merged_placement_args = {
                    **self.options.placement_args,
                    **(placement_args or {}),
                }
                placement = make_placement(name, **merged_placement_args)
            elif placement_args:
                raise ValueError(
                    "placement_args were given but no placement policy "
                    "resolves (single-device engine with no placement name)"
                )
        elif placement_args:
            # mirror InferenceSession's policy_args contract: arguments only
            # make sense when the policy is resolved by name here, and
            # silently ignoring them would hide misconfiguration
            raise ValueError(
                "placement_args only apply when placement is given by name"
            )
        scheduler = make_scheduler(
            options.scheduler,
            kernels=kernels,
            options=options,
            **options.scheduler_args,
        )
        self.runtime = AcrobatRuntime(
            kernels,
            options,
            self.device,
            profiler or ActivityProfiler(),
            scheduler,
            placement=placement,
        )
        # deep model recursion (trees, long sequences) needs a high recursion
        # limit; raised once here rather than on every call
        ensure_recursion_limit()
        self.last_stats: Optional[RunStats] = None

    @property
    def policy(self) -> str:
        """Name of the scheduler policy this engine runs."""
        return self.options.scheduler

    @property
    def num_devices(self) -> int:
        """How many devices back this engine (1 for a standalone simulator)."""
        return getattr(self.device, "num_devices", 1)

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

        stats = self.collect_stats(len(instances), total_s)
        self.last_stats = stats
        return outputs, stats

    # -- statistics ------------------------------------------------------------
    def collect_stats(self, batch_size: int, wall_s: float) -> RunStats:
        """Snapshot runtime counters into a :class:`RunStats`.

        Host time not attributed to scheduling, memory planning, dispatch,
        output materialization or kernel compute is charged to DFG
        construction (graph building is interleaved with the front-end's own
        program execution, so it is measured as the remainder of the
        wall-clock time).
        """
        rt = self.runtime
        stats = rt.collect_stats(batch_size)
        accounted = (
            stats.host_ms.get("scheduling", 0.0)
            + stats.host_ms.get("placement", 0.0)
            + stats.host_ms.get("memory_planning", 0.0)
            + stats.host_ms.get("dispatch", 0.0)
            + stats.host_ms.get("materialize", 0.0)
            + rt.profiler.ms("numpy_compute")
        )
        stats.host_ms["dfg_construction"] = max(0.0, wall_s * 1e3 - accounted)
        return stats

    # -- sessions --------------------------------------------------------------
    def session(
        self,
        *,
        policy: Any = None,
        policy_args: Optional[Dict[str, Any]] = None,
        clock: Any = None,
    ):
        """Open a persistent :class:`~repro.serve.session.InferenceSession`
        that batches across independently submitted requests.

        ``policy`` selects a flush policy from the registry in
        :mod:`repro.serve.policy` (with ``policy_args``, e.g. ``policy="size",
        policy_args={"n": 8}``).  ``clock`` overrides the session's time
        source (e.g. a :class:`~repro.serve.clock.SimulatedClock`).
        """
        from ..serve.session import InferenceSession

        return InferenceSession(
            self, policy=policy, policy_args=policy_args, clock=clock
        )


class EngineModel:
    """What every executable model front-end shares: instance-argument
    binding plus the ``session``/``serve``/``run`` entry points, all
    expressed over the subclass's ``make_engine``.  Subclasses
    (:class:`~repro.compiler.driver.CompiledModel`,
    :class:`~repro.vm.interpreter.VMModel`) provide ``module``, ``params``,
    ``last_stats`` and ``make_engine``."""

    @property
    def instance_binder(self) -> InstanceArgBinder:
        """Argument assembly for one instance (engine-layer binder)."""
        return InstanceArgBinder(
            [p.name_hint for p in self.module.main.params], self.params
        )

    def _instance_args(self, instance: Any) -> List[Any]:
        """Assemble the argument list of ``main`` for one instance."""
        return self.instance_binder(instance)

    def session(
        self,
        device: Optional[DeviceSimulator] = None,
        scheduler: Optional[str] = None,
        *,
        flush_policy: Any = None,
        flush_args: Optional[Dict[str, Any]] = None,
        clock: Any = None,
        devices: Any = None,
        placement: Any = None,
        placement_args: Optional[Dict[str, Any]] = None,
        interconnect: Any = None,
    ):
        """Open a persistent :class:`~repro.serve.session.InferenceSession`
        that batches across independently submitted requests.

        ``scheduler`` selects the *scheduler* policy (registry name — named
        ``scheduler`` here and in :meth:`serve` so it can never be confused
        with the flush-policy registry); ``flush_policy``/``flush_args``
        select the session's *flush* policy (see :mod:`repro.serve.policy`),
        e.g. ``flush_policy="size", flush_args={"n": 8}``.
        ``devices``/``placement``/``placement_args``/``interconnect`` shard
        the session over a device group (see :meth:`make_engine`).
        """
        return self.make_engine(
            device,
            scheduler,
            devices=devices,
            placement=placement,
            placement_args=placement_args,
            interconnect=interconnect,
        ).session(policy=flush_policy, policy_args=flush_args, clock=clock)

    def serve(
        self,
        policy: Any = "adaptive",
        *,
        clock: Any = None,
        device: Optional[DeviceSimulator] = None,
        scheduler: Optional[str] = None,
        devices: Any = None,
        placement: Any = None,
        placement_args: Optional[Dict[str, Any]] = None,
        interconnect: Any = None,
        **policy_args: Any,
    ):
        """Open a policy-driven serving session over this model.

        The serving facade: ``compile_model(...).serve("deadline", ms=5)``
        returns an :class:`~repro.serve.session.InferenceSession` whose
        flush policy (by registry name or instance, with ``policy_args``)
        decides when the accumulated requests execute as one batched round.
        ``scheduler`` optionally overrides the scheduler-policy name and
        ``clock`` the session's time source; ``devices``/``placement``/
        ``placement_args``/``interconnect`` shard the session over a device
        group (see :meth:`make_engine`) — ``serve("adaptive", devices=4,
        placement="round_robin")`` serves one model across four simulated
        GPUs.
        """
        return self.make_engine(
            device,
            scheduler,
            devices=devices,
            placement=placement,
            placement_args=placement_args,
            interconnect=interconnect,
        ).session(policy=policy, policy_args=policy_args or None, clock=clock)

    def run(
        self,
        instances: Sequence[Any],
        device: Optional[DeviceSimulator] = None,
    ) -> Tuple[List[Any], RunStats]:
        """Run one mini-batch.

        Parameters
        ----------
        instances:
            One entry per batch instance: a mapping from per-instance input
            name to value, or the bare value when ``main`` has a single
            per-instance input.
        device:
            Optional externally constructed device simulator (lets callers
            share schedule tables across runs).

        Returns
        -------
        (outputs, stats):
            Per-instance outputs (fully materialized NumPy / ADT values) and
            the host/device breakdown of the run.
        """
        outputs, stats = self.make_engine(device).run(instances)
        self.last_stats = stats
        return outputs, stats
