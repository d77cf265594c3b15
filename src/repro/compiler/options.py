"""Compiler options.

Each flag corresponds to one of the optimizations evaluated in the paper;
:meth:`CompilerOptions.ablation_levels` reproduces the six cumulative
configurations of Fig. 6.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Tuple


@dataclass
class CompilerOptions:
    """Switches for ACROBAT's hybrid static+dynamic optimizations."""

    #: ahead-of-time compilation to native (Python) code; when False the
    #: program is interpreted by the Relay-VM-style interpreter (§6, Table 4)
    aot: bool = True
    #: standard producer-consumer kernel fusion (§7.4)
    kernel_fusion: bool = True
    #: horizontal fusion of same-operator calls sharing an argument (§B.1)
    horizontal_fusion: bool = True
    #: schedule at static-block granularity instead of per-operator (§A.2)
    grain_size_coarsening: bool = True
    #: compute DFG-node depths inline in the generated code (§4.1); when off
    #: the runtime recomputes depths by traversing the DFG
    inline_depth: bool = True
    #: statically hoist operators out of recursion (depth 0, §A.1)
    hoisting: bool = True
    #: split main into program phases and drain them in order (§4.1, §A.3)
    program_phases: bool = True
    #: insert ghost operators to align depths across conditional branches
    ghost_ops: bool = True
    #: fuse memory gathers into batched kernels (§5.2)
    gather_fusion: bool = True
    #: duplicate functions called with different parameter bindings (§B.1)
    specialization: bool = True
    #: exploit instance parallelism under tensor-dependent control flow by
    #: spawning concurrent fibers (§4.2); requires inline_depth
    concurrent_fibers: bool = True
    #: coalesce host->device transfers
    batch_memcpy: bool = True
    #: enable extra runtime consistency checks (tests)
    validate: bool = False
    #: scheduler-policy name from the engine registry
    #: (:mod:`repro.engine.registry`); None derives the policy from
    #: ``inline_depth`` ("inline_depth" when set, else "dynamic_depth")
    scheduler: Optional[str] = None
    #: default auto-scheduler quality assumed for kernels that were not
    #: explicitly auto-scheduled (see kernels.autoscheduler)
    default_schedule_quality: float = 0.9

    def effective(self) -> "CompilerOptions":
        """Resolve inter-flag dependencies (fibers need inline depth)."""
        out = replace(self)
        if not out.inline_depth:
            out.concurrent_fibers = False
            out.hoisting = False
        if not out.kernel_fusion:
            out.horizontal_fusion = False
        return out

    # -- presets ---------------------------------------------------------------
    @classmethod
    def all_off(cls) -> "CompilerOptions":
        """Baseline configuration with every optimization disabled (still AOT)."""
        return cls(
            kernel_fusion=False,
            horizontal_fusion=False,
            grain_size_coarsening=False,
            inline_depth=False,
            hoisting=False,
            program_phases=False,
            ghost_ops=False,
            gather_fusion=False,
            specialization=True,  # required for correctness of shared args
            concurrent_fibers=False,
        )

    @classmethod
    def ablation_levels(cls) -> List[Tuple[str, "CompilerOptions"]]:
        """The six cumulative optimization levels of Fig. 6."""
        levels: List[Tuple[str, CompilerOptions]] = []
        opts = cls.all_off()
        levels.append(("No kernel fusion", opts))
        opts = replace(opts, kernel_fusion=True, horizontal_fusion=True)
        levels.append(("+Std. kernel fusion", opts))
        opts = replace(opts, grain_size_coarsening=True)
        levels.append(("+Grain size coarsening", opts))
        opts = replace(opts, inline_depth=True, hoisting=True, concurrent_fibers=True)
        levels.append(("+Inline depth computation", opts))
        opts = replace(opts, program_phases=True, ghost_ops=True)
        levels.append(("+Program phases/Ghost ops", opts))
        opts = replace(opts, gather_fusion=True)
        levels.append(("+Gather op fusion", opts))
        return levels
