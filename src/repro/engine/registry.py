"""String-keyed scheduler-policy registry.

ACROBAT's thesis is that one batching runtime can serve many execution
strategies that differ only in *where the schedule information comes from*
(static phase/depth annotations, runtime DFG traversals, DyNet-style
agendas).  The registry makes that pluggable: every scheduling strategy is a
named *policy* whose factory builds a scheduler object with a
``schedule(nodes) -> List[ScheduledBatch]`` method, resolved by name
through :func:`make_scheduler` in one place: the runtime
(:class:`~repro.runtime.executor.AcrobatRuntime`) builds its scheduler from
``options.scheduler`` and ``options.scheduler_args``.

Built-in policies:

``inline_depth``
    ACROBAT's scheduler; buckets nodes by the statically computed
    ``(phase, depth)`` pairs (§4.1).
``dynamic_depth``
    Depths recomputed at runtime by traversing the DFG (the Relay-VM /
    ablation configuration).
``agenda``
    DyNet-style agenda scheduling over DFG nodes, batching by block
    signature (Neubig et al. 2017b).
``nobatch``
    Every node is its own batch of one (the eager / PyTorch baseline).
``dynet``
    The full DyNet baseline policy with its batching-signature heuristics;
    accepts ``improvements=`` and ``kind=`` ("agenda" or "depth") policy
    arguments.

Third-party policies register with :func:`register_scheduler`, either as a
plain call or as a decorator on a factory::

    @register_scheduler("my_policy")
    def make_my_scheduler(kernels=None, options=None, **policy_args):
        return MyScheduler(...)

Factories are called with the keyword arguments ``kernels`` (block-id ->
:class:`~repro.kernels.batched.BlockKernel`) and ``options``
(:class:`~repro.runtime.executor.ExecutionOptions`), plus any policy-specific
keyword arguments the caller supplied; factories should accept and ignore
keywords they do not use.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple

from ..runtime.scheduler import (
    AgendaScheduler,
    DynamicDepthScheduler,
    InlineDepthScheduler,
    NoBatchScheduler,
)
from ..utils import Registry

SchedulerFactory = Callable[..., Any]

_SCHEDULERS = Registry("scheduler policy")


def register_scheduler(
    name: str,
    factory: Optional[SchedulerFactory] = None,
    *,
    overwrite: bool = False,
) -> Any:
    """Register a scheduler policy under ``name``.

    Usable as a plain call (``register_scheduler("p", factory)``) or as a
    decorator (``@register_scheduler("p")``).  Registering an existing name
    raises unless ``overwrite=True``.
    """
    return _SCHEDULERS.register(name, factory, overwrite=overwrite)


def unregister_scheduler(name: str) -> None:
    """Remove a policy from the registry (no-op for unknown names)."""
    _SCHEDULERS.unregister(name)


def available_policies() -> Tuple[str, ...]:
    """Names of all registered scheduler policies, sorted."""
    return _SCHEDULERS.available()


def make_scheduler(
    name: str,
    *,
    kernels: Optional[Dict[int, Any]] = None,
    options: Optional[Any] = None,
    **policy_args: Any,
) -> Any:
    """Instantiate the scheduler policy registered under ``name``.

    ``kernels`` and ``options`` describe the runtime the scheduler will serve
    (policies that do not need them ignore them); extra keyword arguments are
    forwarded to the policy factory.
    """
    return _SCHEDULERS.make(name, kernels=kernels, options=options, **policy_args)


# -- built-in policies --------------------------------------------------------

register_scheduler("inline_depth", lambda **_: InlineDepthScheduler())
register_scheduler("dynamic_depth", lambda **_: DynamicDepthScheduler())
register_scheduler("agenda", lambda **_: AgendaScheduler())
register_scheduler("nobatch", lambda **_: NoBatchScheduler())


@register_scheduler("dynet")
def _make_dynet_scheduler(kernels=None, options=None, **policy_args):
    # imported lazily: baselines.dynet sits above the engine layer
    from ..baselines.dynet import DyNetScheduler

    return DyNetScheduler(
        kernels=kernels or {},
        improvements=policy_args.get("improvements"),
        kind=policy_args.get("kind", "agenda"),
    )
