"""Placement policies: *where* does a scheduled batch execute?

After the scheduler has grouped a round's DFG nodes into batches and before
the memory planner runs, a :class:`PlacementPolicy` assigns every batch a
device index within the runtime's :class:`~repro.devices.group.DeviceGroup`
— possibly splitting batches into per-device shards.  Policies are
string-keyed through a registry mirroring the scheduler-policy and
flush-policy registries: runtimes resolve them by name via
:func:`make_placement`, and third parties add their own with
:func:`register_placement`.

Built-in policies:

``single``
    Everything on device 0 (the pre-multi-device behaviour; the group's
    other members stay idle).
``round_robin``
    Request-level sharding: instance ``i`` lives on device ``i % N``, so
    every scheduled batch splits into per-device shards along instance
    boundaries.  A request's whole DFG chain stays on one device, so no
    cross-device operand traffic arises for independent requests.
``data_parallel``
    Split each scheduled batch into N contiguous shards *when its size
    amortizes the extra launches*: using the device cost model, splitting
    pays when the memory-time saved by shrinking the per-device batch
    exceeds the serial CPU-side API overhead of the extra launches.  Small
    batches stay whole but route round-robin across the group, and splits
    anchor at a per-round rotating base device, so neither unsplittable
    work nor partial splits pile on device 0.

Whatever a policy does, results are reference-identical: placement moves
*where* a batch executes (and what transfers are charged), never what it
computes.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..runtime.scheduler import ScheduledBatch
from ..runtime.tensor import LazyTensor
from ..utils import Registry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..kernels.batched import BlockKernel
    from .group import DeviceGroup

PlacementFactory = Callable[..., "PlacementPolicy"]

_PLACEMENTS = Registry("placement policy")


class PlacementPolicy:
    """Assigns every scheduled batch of a round to a device in the group."""

    #: registry name
    name = "single"

    def place_round(
        self,
        batches: List[ScheduledBatch],
        group: "DeviceGroup",
        kernels: Dict[int, "BlockKernel"],
    ) -> List[ScheduledBatch]:
        """Return the round's batches with device indices assigned.

        Policies may split batches (returning more, smaller ones) but must
        preserve execution order: a shard of batch *k* must appear before
        any shard of batch *k+1*, so dependency order survives placement.
        """
        return batches

    def observe(
        self,
        block_id: int,
        batch_size: int,
        duration_us: float,
        num_launches: int,
        spec: Any,
    ) -> None:
        """Feedback hook: the executor reports every batch's simulated
        launch time after charging it, so adaptive policies can learn
        per-block device cost (the static operand-byte estimate cannot see
        compute-bound work)."""

    def note_reset(self) -> None:
        """Run-boundary hook: the runtime calls this when it resets for a
        new run (one serving flush, one ``run()`` call).  Sync rounds
        *within* a run share whatever state the policy keys placement on;
        policies that rotate placement do so here, so dependency chains
        spanning a run's rounds (fiber programs) stay device-aligned."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


# -- registry -----------------------------------------------------------------


def register_placement(
    name: str,
    factory: Optional[PlacementFactory] = None,
    *,
    overwrite: bool = False,
) -> Any:
    """Register a placement policy under ``name`` (plain call or decorator).

    Registering an existing name raises unless ``overwrite=True``.
    """
    return _PLACEMENTS.register(name, factory, overwrite=overwrite)


def unregister_placement(name: str) -> None:
    """Remove a placement policy from the registry (no-op for unknown names)."""
    _PLACEMENTS.unregister(name)


def available_placements() -> Tuple[str, ...]:
    """Names of all registered placement policies, sorted."""
    return _PLACEMENTS.available()


def make_placement(name: str, **policy_args: Any) -> PlacementPolicy:
    """Instantiate the placement policy registered under ``name``."""
    return _PLACEMENTS.make(name, **policy_args)


# -- built-in policies --------------------------------------------------------


@register_placement("single")
class SinglePlacement(PlacementPolicy):
    """Everything on device 0 (the degenerate, pre-sharding placement)."""

    name = "single"


@register_placement("round_robin")
class RoundRobinPlacement(PlacementPolicy):
    """Request-level sharding: instance ``i`` executes on device ``i % N``.

    Every scheduled batch splits along instance boundaries into at most N
    per-device shards (node order within each shard is preserved, and
    shards inherit their batch's position in the round, so dependency order
    survives).  Because the *same* instances map to the same device in
    every round, a request's whole chain — and therefore every
    producer/consumer arena pair — stays device-local.
    """

    name = "round_robin"

    def place_round(
        self,
        batches: List[ScheduledBatch],
        group: "DeviceGroup",
        kernels: Dict[int, "BlockKernel"],
    ) -> List[ScheduledBatch]:
        n = group.num_devices
        if n <= 1:
            return batches
        placed: List[ScheduledBatch] = []
        for batch in batches:
            shards: Dict[int, List] = {}
            for ref, instance in zip(batch.refs(), batch.instances()):
                shards.setdefault(instance % n, []).append(ref)
            if len(shards) == 1:
                batch.device = next(iter(shards))
                placed.append(batch)
                continue
            for device in sorted(shards):
                placed.append(
                    ScheduledBatch.of_rows(batch.block_id, shards[device], device)
                )
        return placed


@register_placement("data_parallel")
class DataParallelPlacement(PlacementPolicy):
    """Split big batches into contiguous per-device shards; keep small ones,
    rotating them round-robin over a per-round home device.

    For each scheduled batch of size ``B`` the policy asks the device cost
    model whether sharding pays: splitting into ``k`` shards divides the
    batch's per-device *work* time by ``k`` (shards run concurrently) but
    adds ``(k-1)`` serial CPU-side launches at ``api_overhead_us`` each.
    Every shard count from 2 to the device count is considered and the one
    with the best *net* elapsed saving wins — an intermediate split can pay
    where the maximal one does not.

    The per-instance work estimate has two sources.  Once a block has
    executed, the policy uses the *observed* launch durations the executor
    feeds back through :meth:`observe` (an EWMA per block — this captures
    compute-bound and memory-bound work alike, exactly as the adaptive
    flush policy learns launches-per-round).  Before the first observation
    it falls back to a static estimate from the batch's already
    materialized / host operand bytes: memory time shrinks from
    ``(shared + B*var) / bw`` to ``(shared + ceil(B/k)*var) / bw`` (shared
    operands are re-read by every shard).  When nothing is known at all
    (e.g. the first round of a fiber program) a batch splits optimistically
    once every shard can hold ``min_shard`` instances.

    Shards are *contiguous* runs of the batch's nodes, so two consecutive
    batches over the same instances shard identically and their
    producer/consumer arenas stay device-local; mismatched memberships
    degrade to priced peer transfers, never to wrong results.

    Neither unsplit batches nor partial splits pile onto the low device
    indices (the ROADMAP's ~0.33-at-4-devices busy-time imbalance):

    * batches the cost model keeps whole route **round-robin** — each
      unsplit batch takes the next device in rotation, so the work the
      splitter cannot shard still spreads over the whole group (any
      cross-device producer/consumer operands this creates are priced peer
      transfers, and an unsplit batch is by definition a small one);
    * a ``k``-way split anchors at a per-*run* base that rotates across
      runs (serving flushes), occupying devices ``base .. base+k-1``
      (mod N) — partial splits stop favouring devices 0..k-1, while
      same-``k`` producer/consumer pairs within a run (including fiber
      programs' chains across sync rounds) keep their shard placement
      aligned: chains stay device-local exactly as before.
    """

    name = "data_parallel"

    def __init__(self, min_shard: int = 2, smoothing: float = 0.5) -> None:
        if min_shard < 1:
            raise ValueError("data_parallel placement needs min_shard >= 1")
        self.min_shard = int(min_shard)
        self.smoothing = float(smoothing)
        #: EWMA of per-instance device work (us, launch overhead excluded)
        #: per block id, learned from observed launches
        self._work_us: Dict[int, float] = {}
        #: next device in the unsplit-batch round-robin rotation
        self._unsplit_rr = 0
        #: base device anchoring this run's splits (advances at the next
        #: run boundary — :meth:`note_reset` — once the run placed
        #: something)
        self._round_base = 0
        self._placed_since_reset = False

    def place_round(
        self,
        batches: List[ScheduledBatch],
        group: "DeviceGroup",
        kernels: Dict[int, "BlockKernel"],
    ) -> List[ScheduledBatch]:
        n = group.num_devices
        if n <= 1:
            return batches
        placed: List[ScheduledBatch] = []
        base = self._round_base % n
        for batch in batches:
            k = self._num_shards(batch, group, kernels)
            if k <= 1:
                # stays whole; route round-robin instead of piling on one
                # device
                batch.device = self._unsplit_rr % n
                self._unsplit_rr = (self._unsplit_rr + 1) % n
                placed.append(batch)
                continue
            refs = batch.refs()
            per_shard = math.ceil(len(refs) / k)
            for shard_index in range(k):
                shard = refs[shard_index * per_shard : (shard_index + 1) * per_shard]
                if shard:
                    placed.append(
                        ScheduledBatch.of_rows(
                            batch.block_id, shard, (base + shard_index) % n
                        )
                    )
        if batches:
            self._placed_since_reset = True
        return placed

    def observe(
        self,
        block_id: int,
        batch_size: int,
        duration_us: float,
        num_launches: int,
        spec: Any,
    ) -> None:
        work = max(0.0, duration_us - num_launches * spec.launch_overhead_us)
        per_instance = work / max(1, batch_size)
        prev = self._work_us.get(block_id)
        s = self.smoothing
        self._work_us[block_id] = (
            per_instance if prev is None else s * per_instance + (1 - s) * prev
        )

    def note_reset(self) -> None:
        # rotate the split anchor once per run (serving flush), never
        # between a run's sync rounds: fiber chains spanning rounds keep
        # their producer/consumer shards device-aligned
        if self._placed_since_reset:
            self._round_base += 1
            self._placed_since_reset = False

    # -- cost model ------------------------------------------------------------
    def _num_shards(
        self,
        batch: ScheduledBatch,
        group: "DeviceGroup",
        kernels: Dict[int, "BlockKernel"],
    ) -> int:
        size = batch.size
        k_max = min(group.num_devices, size // self.min_shard)
        if k_max <= 1:
            return 1
        spec = group.spec
        observed = self._work_us.get(batch.block_id)
        if observed is not None:
            per_instance_us = observed
        else:
            shared_bytes, var_bytes, known = self._estimate_bytes(batch, kernels)
            if not known:
                return k_max  # no estimate yet: shard optimistically
            # static fallback: memory time only (shared operands are re-read
            # by every shard, so only the varying bytes actually shard)
            per_instance_us = var_bytes / (spec.mem_bandwidth_gbps * 1e3)
        # pick the shard count with the best *net* elapsed saving: shards
        # run concurrently, so k shards save work * (B - ceil(B/k)) but add
        # (k - 1) serial CPU-side launches — the maximal k is not always the
        # best (or even profitable) split
        best_k, best_net = 1, 0.0
        for k in range(2, k_max + 1):
            saved_us = per_instance_us * (size - math.ceil(size / k))
            net = saved_us - (k - 1) * spec.api_overhead_us
            if net > best_net:
                best_k, best_net = k, net
        return best_k

    @staticmethod
    def _estimate_bytes(
        batch: ScheduledBatch, kernels: Dict[int, "BlockKernel"]
    ) -> Tuple[float, float, bool]:
        """(shared bytes per launch, varying bytes per instance, any known).

        Reads sizes off the first row's operands; pending lazy tensors have
        no value yet and contribute nothing (an underestimate — the split
        decision errs toward keeping batches whole, which is the safe side).
        """
        kernel = kernels.get(batch.block_id)
        if kernel is None:
            return 0.0, 0.0, False
        args = batch.first_args()
        shared = var = 0.0
        known = False
        for inp in kernel.block.inputs:
            arg = args[inp.index]
            if isinstance(arg, LazyTensor):
                arena = arg.arena
                if arena is None:
                    continue
                nbytes = arena.instance_nbytes
            else:
                nbytes = float(np.asarray(arg).nbytes)
            known = True
            if inp.shared:
                shared += nbytes
            else:
                var += nbytes
        return shared, var, known
