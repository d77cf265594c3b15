"""Compilation pipeline and the :class:`CompiledModel` user API.

:func:`compile_module` runs the full ACROBAT pipeline:

1. function specialization (code duplication for parameter reuse, §B.1);
2. taint analysis for parameter-reuse inference (§5.1);
3. program-phase inference (§4.1);
4. tensor-dependent-control-flow detection (§4.2);
5. AOT Python code generation with inline depth computation, ghost ops and
   fiber spawning (§4, §6);
6. batched-kernel construction (fusion + gather handling) for every static
   block (§5).

The resulting :class:`CompiledModel` is a thin adapter over the
:class:`~repro.engine.engine.ExecutionEngine`: it supplies the generated
program binding and per-instance argument assembly, and the engine owns
runtime construction, fibers, and statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional

import numpy as np

from ..analysis.duplication import specialize_functions
from ..analysis.phases import infer_phases
from ..analysis.structure import reachable_functions, uses_tensor_dependent_control_flow
from ..analysis.taint import analyze_taint
from ..engine.engine import EngineModel, ExecutionEngine, ProgramBinding
from ..ir.module import IRModule
from ..kernels.batched import BlockKernel
from ..runtime.device import GPUSpec
from ..runtime.executor import AcrobatRuntime, ExecutionOptions
from ..runtime.fibers import FiberScheduler
from .codegen import GeneratedProgram, PythonCodegen, py_func_name
from .options import CompilerOptions


class _ProgramEntry:
    """The per-instance entry of one instance of a generated program.

    It owns the namespace the generated functions live in: those functions
    read ``__rt`` / ``__fibers`` as globals, so namespace and functions
    reference each other.  Emptying the namespace when the last holder of
    the entry lets go frees both, and the runtime (with its arenas) they
    hold, by reference counting, not at the next cyclic collection — and
    not while a caller can still run the program.
    """

    __slots__ = ("namespace", "_main", "_binder")

    def __init__(self, namespace: Dict[str, Any], binder: Callable[[Any], List[Any]]) -> None:
        self.namespace = namespace
        self._main = namespace[py_func_name("main")]
        self._binder = binder

    def __call__(self, instance: Any) -> Any:
        return self._main(*self._binder(instance), [0], 0)

    def __del__(self) -> None:
        self.namespace.clear()


class CompiledProgramBinding(ProgramBinding):
    """Engine adapter for an AOT-generated program.

    Each runtime gets an instance of the program of its own
    (:meth:`GeneratedProgram.instantiate`), built on the first bind and kept
    for the engine's life: engines of one model — other sessions, other
    threads — never route each other's ``invoke`` calls.  A later bind only
    stores the run's fiber scheduler.
    """

    def __init__(self, model: "CompiledModel") -> None:
        self.model = model
        self._entry: Optional[_ProgramEntry] = None

    @property
    def uses_fibers(self) -> bool:
        return self.model.program.tdc

    def bind(
        self, runtime: AcrobatRuntime, fibers: Optional[FiberScheduler]
    ) -> Callable[[Any], Any]:
        entry = self._entry
        if entry is None or entry.namespace["__rt"] is not runtime:
            entry = self._entry = _ProgramEntry(
                self.model.program.instantiate(runtime), self.model.instance_binder
            )
        entry.namespace["__fibers"] = fibers
        return entry


@dataclass
class CompiledModel(EngineModel):
    """An AOT-compiled model ready to run mini-batches."""

    module: IRModule
    options: CompilerOptions
    params: Dict[str, np.ndarray]
    program: GeneratedProgram
    kernels: Dict[int, BlockKernel]
    instance_param_names: List[str]
    gpu_spec: Optional[GPUSpec] = None

    # -- introspection -----------------------------------------------------------
    @property
    def source(self) -> str:
        """Generated Python source of the AOT-compiled unbatched program."""
        return self.program.source

    @property
    def uses_tdc(self) -> bool:
        return self.program.tdc

    def kernel_names(self) -> List[str]:
        """Names of all generated (fused) batched kernels."""
        names: List[str] = []
        for kernel in self.kernels.values():
            names.extend(kernel.kernel_names())
        return names

    # -- execution ------------------------------------------------------------------
    def _exec_options(self, policy: Optional[str] = None) -> ExecutionOptions:
        """Runtime-facing options derived from the compiler options."""
        opts = self.options
        return ExecutionOptions(
            gather_fusion=opts.gather_fusion,
            scheduler=policy
            or opts.scheduler
            or ("inline_depth" if opts.inline_depth else "dynamic_depth"),
            validate=opts.validate,
        )

    def make_engine(
        self,
        device: Any = None,
        scheduler: Optional[str] = None,
        *,
        placement: Any = None,
    ) -> ExecutionEngine:
        """Create an execution engine bound to this model.

        ``scheduler`` overrides the scheduler-policy name (a key of the
        engine's scheduler registry — named ``scheduler`` on every model
        entry point so it cannot be confused with the serving layer's flush
        policies); the default derives from the compiler options.

        ``device`` is what the engine charges, always held as a
        :class:`~repro.devices.group.DeviceGroup`: a
        :class:`~repro.runtime.device.DeviceSimulator` (adopted as the
        one-member group), a ready group, an integer member count or a list
        of :class:`~repro.runtime.device.GPUSpec`\\ s (heterogeneous
        groups); more than one member turns on multi-device
        execution, and a group built as ``DeviceGroup(n,
        interconnect="nvlink")`` prices cross-device transfers over its
        interconnect (pcie otherwise).  ``placement`` selects the placement
        policy by registry name or by instance, the way to pass a
        non-default setting such as ``DataParallelPlacement(min_shard=3)``
        (default ``round_robin`` for multi-device groups).
        """
        return ExecutionEngine(
            program=CompiledProgramBinding(self),
            kernels=self.kernels,
            options=self._exec_options(scheduler),
            device=device,
            gpu_spec=self.gpu_spec,
            placement=placement,
        )


def compile_module(
    module: IRModule,
    params: Mapping[str, np.ndarray],
    options: Optional[CompilerOptions] = None,
    gpu_spec: Optional[GPUSpec] = None,
) -> CompiledModel:
    """Compile an IR module with bound parameters into a :class:`CompiledModel`.

    ``params`` maps the names of ``main``'s *weight* parameters to concrete
    arrays; every remaining ``main`` parameter is treated as a per-instance
    input (and is therefore tainted / per-instance for the reuse analysis).
    """
    options = options or CompilerOptions()

    specialized = specialize_functions(module)
    main = specialized.main
    instance_params = [p.name_hint for p in main.params if p.name_hint not in params]
    if not instance_params:
        raise ValueError("main has no per-instance inputs (all parameters bound)")

    taint = analyze_taint(specialized, instance_params)
    phases = infer_phases(specialized, options.program_phases)
    tdc = uses_tensor_dependent_control_flow(specialized)
    order = reachable_functions(specialized, "main")

    codegen = PythonCodegen(specialized, taint, phases, options, tdc, order)
    program = codegen.generate()

    kernels = {
        block.block_id: BlockKernel(block, enable_fusion=options.kernel_fusion)
        for block in program.blocks
    }

    return CompiledModel(
        module=specialized,
        options=options,
        params={k: np.asarray(v) for k, v in params.items()},
        program=program,
        kernels=kernels,
        instance_param_names=instance_params,
        gpu_spec=gpu_spec,
    )
