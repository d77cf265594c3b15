"""DyNet-style dynamic-batching baseline (Neubig et al. 2017b).

The paper's main comparison point.  DyNet executes the unbatched program
lazily, building a per-operator dataflow graph, and discovers batching
opportunities *purely at runtime* with agenda- or depth-based scheduling
(Fig. 7 in the paper's appendix).  We reproduce its algorithm on the same
substrate as ACROBAT so that only the batching strategy differs:

* per-operator DFG nodes (no grain-size coarsening), no kernel fusion, no
  gather fusion (explicit memory gathers), no operator hoisting, no program
  phases — i.e. the compiler's ``all_off`` configuration;
* depths/agendas recomputed from the DFG at runtime (real host cost);
* DyNet's *heuristic* batching signatures (§7.3):
    - ``dense``/``matmul`` instances batch only when their first argument is
      literally the same tensor (true for weight matrices, false for
      products of intermediate activations as in MV-RNN);
    - ``argmax``, broadcasting element-wise multiplication (``scale``) and
      constant-tensor creation (``full``/``zeros``) never batch.

``DyNetImprovements`` reproduces the DN++ variant of Table 7 (heuristics
fixed by hand).  For models with tensor-dependent control flow the baseline
runs instances on interleaved fibers, which corresponds to the manual
batching-friendly restructuring DyNet programmers perform (§4.2); DyNet
still cannot exploit *instance* parallelism (no concurrent fibers).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..compiler.driver import CompiledModel, compile_module
from ..compiler.options import CompilerOptions
from ..ir.module import IRModule
from ..kernels.batched import BlockKernel
from ..runtime.device import GPUSpec
from ..runtime.executor import ExecutionOptions
from ..runtime.scheduler import (
    NumberedRows,
    ScheduledBatch,
    Span,
    agenda_schedule,
    dynamic_depth_schedule,
)
from ..runtime.tensor import Column, LazyTensor


#: DyNet's two runtime scheduling schemes; the paper reports the faster one
DYNET_SCHEMES = ("depth", "agenda")


@dataclass(frozen=True)
class DyNetImprovements:
    """The hand-fixes applied to DyNet in §7.3 / Table 7 (all False = stock
    DyNet, all True = DN++)."""

    #: batch matrix multiplications even when the first argument differs
    improved_matmul: bool = False
    #: support batched argmax
    batch_argmax: bool = False
    #: batch broadcasting element-wise multiplications
    batch_broadcast_mul: bool = False
    #: create reused constant tensors only once
    reuse_constants: bool = False
    #: manually exploit recursive instance parallelism (DRNN fix)
    instance_parallelism: bool = False

    @classmethod
    def stock(cls) -> "DyNetImprovements":
        return cls()

    @classmethod
    def improved(cls) -> "DyNetImprovements":
        return cls(
            improved_matmul=True,
            batch_argmax=True,
            batch_broadcast_mul=True,
            reuse_constants=True,
            instance_parallelism=True,
        )


#: operators DyNet cannot batch at all (stock heuristics)
_UNBATCHABLE_STOCK = {"argmax", "scale", "full", "zeros"}
#: operators batched only on identical first argument (weight matrices)
_FIRST_ARG_OPS = {"dense", "matmul"}


class DyNetScheduler:
    """Scheduler policy implementing DyNet's runtime-only batching.

    Registered in the engine's policy registry as ``"dynet"``; the former
    ``DyNetRuntime`` subclass is gone — the stock
    :class:`~repro.runtime.executor.AcrobatRuntime` drives this scheduler
    like any other policy, so DyNet and ACROBAT share every line of the
    execution machinery and differ only in where the schedule comes from.
    """

    def __init__(
        self,
        kernels: Dict[int, BlockKernel],
        improvements: Optional[DyNetImprovements] = None,
        kind: str = "agenda",
    ) -> None:
        if kind not in DYNET_SCHEMES:
            raise ValueError("scheduler kind must be 'agenda' or 'depth'")
        self.kernels = kernels
        self.improvements = improvements or DyNetImprovements.stock()
        self.kind = kind

    # -- DyNet batching signature ------------------------------------------------
    def _signature(self, col: Column, row: int) -> Hashable:
        kernel = self.kernels[col.block_id]
        ops = kernel.block.ops
        op_name = ops[0].op_name if len(ops) == 1 else None
        imp = self.improvements
        sig: Tuple = (col.block_id,)
        if op_name is None:
            return sig
        if op_name in _UNBATCHABLE_STOCK:
            if op_name == "argmax" and imp.batch_argmax:
                return sig
            if op_name == "scale" and imp.batch_broadcast_mul:
                return sig
            if op_name in ("full", "zeros") and imp.reuse_constants:
                return sig
            return sig + ("node", col.seqs[row])  # never batches
        if op_name in _FIRST_ARG_OPS and not imp.improved_matmul:
            args = col.args[row]
            first = args[0] if args else None
            # the producing row is the tensor's identity: the outputs of one
            # invocation count as the same argument, as DyNet's node does
            key = (
                (id(first.column), first.row)
                if isinstance(first, LazyTensor)
                else id(first)
            )
            return sig + ("first_arg", key)
        return sig

    # -- scheduling ------------------------------------------------------------------
    def schedule(self, spans: Sequence[Span]) -> List[ScheduledBatch]:
        rows = NumberedRows(spans)
        # a row's signature never changes: computed once, not once per
        # agenda step the row waits through
        signatures = [
            None if col is None else self._signature(col, row)
            for col, row in zip(rows.cols, rows.rows)
        ]
        algorithm = agenda_schedule if self.kind == "agenda" else dynamic_depth_schedule
        return rows.batches(algorithm(rows.numbers, rows.dfg_deps, signatures.__getitem__))


@dataclass
class DyNetModel(CompiledModel):
    """A model executed with DyNet's runtime batching strategy."""

    improvements: DyNetImprovements = field(default_factory=DyNetImprovements.stock)
    scheduler_kind: str = "agenda"

    def _exec_options(self, policy: Optional[str] = None) -> ExecutionOptions:
        return ExecutionOptions(
            gather_fusion=False,        # DyNet performs explicit memory gathers
            scheduler=policy or "dynet",
            batch_memcpy=False,         # transfers are not coalesced
            validate=self.options.validate,
            scheduler_args={
                "improvements": self.improvements,
                "kind": self.scheduler_kind,
            },
        )


def dynet_compiler_options(validate: bool = False) -> CompilerOptions:
    """The compiler configuration modelling DyNet's execution strategy:
    per-operator nodes, vendor-library-style unfused kernels, no static
    optimizations.  Function specialization still runs, as it always does:
    the shared-argument classification is only correct after it (DyNet's
    lookup parameters play the same role)."""
    opts = CompilerOptions.all_off()
    return replace(opts, validate=validate)


def compile_dynet(
    module: IRModule,
    params: Mapping[str, np.ndarray],
    improvements: Optional[DyNetImprovements] = None,
    scheduler_kind: str = "agenda",
    gpu_spec: Optional[GPUSpec] = None,
    validate: bool = False,
) -> DyNetModel:
    """Compile ``module`` for execution under the DyNet baseline."""
    base = compile_module(module, params, dynet_compiler_options(validate), gpu_spec)
    kwargs = {f.name: getattr(base, f.name) for f in fields(CompiledModel)}
    return DyNetModel(
        **kwargs,
        improvements=improvements or DyNetImprovements.stock(),
        scheduler_kind=scheduler_kind,
    )
