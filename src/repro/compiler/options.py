"""Compiler options.

The switches are the five cumulative optimizations of the paper's ablation
(Fig. 6), plus the choice of execution path, a validation mode and the
scheduler name.  :meth:`CompilerOptions.ablation_levels` reproduces the six
Fig. 6 configurations; each field turns on one level:

=========================  ===============================================
field                      Fig. 6 level (what else it turns on)
=========================  ===============================================
``kernel_fusion``          +Std. kernel fusion (and horizontal fusion)
``grain_size_coarsening``  +Grain size coarsening
``inline_depth``           +Inline depth computation (and operator
                           hoisting, and concurrent fibers under
                           tensor-dependent control flow)
``program_phases``         +Program phases/Ghost ops (both)
``gather_fusion``          +Gather op fusion
=========================  ===============================================

Function specialization (code duplication for parameter reuse, §B.1) is
not a switch: shared arguments are only correct after it, so it always
runs.
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
    #: standard producer-consumer kernel fusion (§7.4), with horizontal
    #: fusion of same-operator calls sharing an argument (§B.1)
    kernel_fusion: bool = True
    #: schedule at static-block granularity instead of per-operator (§A.2)
    grain_size_coarsening: bool = True
    #: compute DFG-node depths inline in the generated code (§4.1), hoist
    #: operators out of recursion to the static depth 0 (§A.1) and spawn
    #: concurrent fibers under tensor-dependent control flow (§4.2); when
    #: off the runtime recomputes depths by traversing the DFG
    inline_depth: bool = True
    #: split main into program phases and drain them in order, with ghost
    #: operators aligning depths across conditional branches (§4.1, §A.3)
    program_phases: bool = True
    #: fuse memory gathers into batched kernels (§5.2)
    gather_fusion: bool = True
    #: enable extra runtime consistency checks (tests)
    validate: bool = False
    #: scheduler-policy name from the engine registry
    #: (:mod:`repro.engine.registry`); None derives the policy from
    #: ``inline_depth`` ("inline_depth" when set, else "dynamic_depth")
    scheduler: Optional[str] = None

    # -- presets ---------------------------------------------------------------
    @classmethod
    def all_off(cls) -> "CompilerOptions":
        """Baseline configuration with every optimization disabled (still AOT)."""
        return cls(
            kernel_fusion=False,
            grain_size_coarsening=False,
            inline_depth=False,
            program_phases=False,
            gather_fusion=False,
        )

    @classmethod
    def ablation_levels(cls) -> List[Tuple[str, "CompilerOptions"]]:
        """The six cumulative optimization levels of Fig. 6."""
        levels: List[Tuple[str, CompilerOptions]] = []
        opts = cls.all_off()
        levels.append(("No kernel fusion", opts))
        opts = replace(opts, kernel_fusion=True)
        levels.append(("+Std. kernel fusion", opts))
        opts = replace(opts, grain_size_coarsening=True)
        levels.append(("+Grain size coarsening", opts))
        opts = replace(opts, inline_depth=True)
        levels.append(("+Inline depth computation", opts))
        opts = replace(opts, program_phases=True)
        levels.append(("+Program phases/Ghost ops", opts))
        opts = replace(opts, gather_fusion=True)
        levels.append(("+Gather op fusion", opts))
        return levels
