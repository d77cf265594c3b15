"""Top-level user API.

* :func:`compile_model` — compile an IR module + parameters into an
  executable model.  With ``options.aot=False`` the returned object executes
  through the Relay-VM-style interpreter instead of AOT-generated code
  (Table 4's baseline); the ``run`` interface is identical.
  The serving path starts from the returned model:
  ``compile_model(...).serve(policy, **policy_args)``.
* :func:`reference_run` — unbatched eager execution used as numerical ground
  truth.
"""

from __future__ import annotations

from typing import Any, List, Mapping, Optional, Sequence, Union

import numpy as np

from ..compiler.driver import CompiledModel, compile_module
from ..compiler.options import CompilerOptions
from ..ir.module import IRModule
from ..runtime.device import GPUSpec
from ..vm.interpreter import VMModel, run_reference

ExecutableModel = Union[CompiledModel, VMModel]


def compile_model(
    module: IRModule,
    params: Mapping[str, np.ndarray],
    options: Optional[CompilerOptions] = None,
    gpu_spec: Optional[GPUSpec] = None,
) -> ExecutableModel:
    """Compile ``module`` with bound ``params`` into an executable model.

    Parameters
    ----------
    module:
        IR module whose ``main`` takes the model parameters plus the
        per-instance inputs.
    params:
        Mapping from parameter names of ``main`` to concrete weight arrays;
        every unbound parameter becomes a per-instance input.
    options:
        Compiler options; ``options.aot=False`` selects the interpreted
        (Relay-VM) execution path.
    gpu_spec:
        Optional custom simulated-GPU parameters.
    """
    options = options or CompilerOptions()
    if options.scheduler is not None:
        # fail fast on unknown policy names: resolving lazily inside engine
        # construction would surface the error far from the user's typo
        from ..engine.registry import available_policies

        if options.scheduler not in available_policies():
            raise ValueError(
                f"unknown scheduler policy {options.scheduler!r} in "
                f"CompilerOptions.scheduler; registered policies: "
                f"{', '.join(available_policies())}"
            )
    if not options.aot:
        return VMModel(
            module=module,
            params={k: np.asarray(v) for k, v in params.items()},
            gpu_spec=gpu_spec,
            gather_fusion=options.gather_fusion,
        )
    return compile_module(module, params, options, gpu_spec)


def reference_run(
    module: IRModule,
    params: Mapping[str, np.ndarray],
    instances: Sequence[Any],
) -> List[Any]:
    """Unbatched eager execution of ``module`` over ``instances`` (ground
    truth for all other backends)."""
    return run_reference(module, params, instances)
