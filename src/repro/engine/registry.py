"""String-keyed scheduler-policy registry.

ACROBAT's thesis is that one batching runtime can serve many execution
strategies that differ only in *where the schedule information comes from*
(static phase/depth annotations, runtime DFG traversals, DyNet-style
agendas).  The registry makes that pluggable: every scheduling strategy is a
named *policy* whose factory builds a scheduler object with a
``schedule(nodes) -> List[ScheduledBatch]`` method, resolved by name
through ``SCHEDULERS.make`` in one place: the runtime
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

Third-party policies register with ``SCHEDULERS.register``, either as a
plain call or as a decorator on a factory::

    @SCHEDULERS.register("my_policy")
    def make_my_scheduler(kernels=None, options=None, **policy_args):
        return MyScheduler(...)

Factories are called with the keyword arguments ``kernels`` (block-id ->
:class:`~repro.kernels.batched.BlockKernel`) and ``options``
(:class:`~repro.runtime.executor.ExecutionOptions`), plus any policy-specific
keyword arguments the caller supplied; factories should accept and ignore
keywords they do not use.
"""

from __future__ import annotations

from ..runtime.scheduler import (
    AgendaScheduler,
    DynamicDepthScheduler,
    InlineDepthScheduler,
    NoBatchScheduler,
)
from ..utils import Registry

SCHEDULERS = Registry("scheduler policy")

# -- built-in policies --------------------------------------------------------

SCHEDULERS.register("inline_depth", lambda **_: InlineDepthScheduler())
SCHEDULERS.register("dynamic_depth", lambda **_: DynamicDepthScheduler())
SCHEDULERS.register("agenda", lambda **_: AgendaScheduler())
SCHEDULERS.register("nobatch", lambda **_: NoBatchScheduler())


@SCHEDULERS.register("dynet")
def _make_dynet_scheduler(kernels=None, options=None, **policy_args):
    # imported lazily: baselines.dynet sits above the engine layer
    from ..baselines.dynet import DyNetScheduler

    return DyNetScheduler(
        kernels=kernels or {},
        improvements=policy_args.get("improvements"),
        kind=policy_args.get("kind", "agenda"),
    )
