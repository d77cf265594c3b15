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
``pipeline``
    Depth-staged execution: contiguous runs of the round's scheduled
    batches (the scheduler emits them in depth order) become pipeline
    stages, stage ``s`` on device ``s``, balanced by the learned per-block
    work model.  Stages of one round run sequentially, so the policy's win
    is continuous serving: per-device timeline lanes let stage ``k`` of
    round ``N+1`` start as soon as stage ``k`` of round ``N`` drains.
``tensor_parallel``
    Intra-batch splitting: blocks whose observed launch time amortizes it
    are marked to execute as ``1/k`` cost shards on ``k`` members
    concurrently, with peer-priced gathers assembling the partial outputs
    on the home device.

Whatever a policy does, results are reference-identical: placement moves
*where* a batch executes (and what transfers are charged), never what it
computes.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..runtime.scheduler import ScheduledBatch
from ..runtime.tensor import LazyTensor
from ..utils import Registry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..kernels.batched import BlockKernel
    from .device import Device

PlacementFactory = Callable[..., "PlacementPolicy"]

_PLACEMENTS = Registry("placement policy")


class PlacementPolicy:
    """Assigns every scheduled batch of a round to a device in the group."""

    #: registry name
    name = "single"

    #: how the serving timeline models this policy's rounds across the
    #: group's per-device lanes: ``"concurrent"`` (members execute disjoint
    #: shares of the round in parallel — every built-in sharding policy) or
    #: ``"staged"`` (members execute the round's shares *in sequence*, each
    #: lane freeing as its stage drains — the pipeline policy, whose
    #: cross-round overlap lives exactly in that distinction)
    timeline_mode = "concurrent"

    def place_round(
        self,
        batches: List[ScheduledBatch],
        group: "Device",
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
        bytes_written: float = 0.0,
    ) -> None:
        """Feedback hook: the executor reports every batch's simulated
        launch time (and output bytes) after charging it, so adaptive
        policies can learn per-block device cost (the static operand-byte
        estimate cannot see compute-bound work)."""

    def note_reset(self) -> None:
        """Run-boundary hook: the runtime calls this when it resets for a
        new run (one serving flush, one ``run()`` call).  Sync rounds
        *within* a run share whatever state the policy keys placement on;
        policies that rotate placement do so here, so dependency chains
        spanning a run's rounds (fiber programs) stay device-aligned."""

    def snapshot_state(self) -> Any:
        """Opaque snapshot of whatever mutable state :meth:`place_round`
        advances, taken before a *speculative* placement so an abandoned
        speculation can roll back via :meth:`restore_state`.  Stateless
        policies return None.  Learned cost state (EWMAs fed by
        :meth:`observe`) deliberately stays out of the snapshot: it only
        tunes *future* split decisions, never the identity of a committed
        round, so keeping observations from an aborted speculation is
        harmless — and they were paid for."""
        return None

    def restore_state(self, state: Any) -> None:
        """Roll back to a :meth:`snapshot_state` snapshot (abandoning a
        speculative placement).  No-op for stateless policies."""

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


# -- shared learned cost model ------------------------------------------------


def partition_stages(
    costs: Sequence[float], num_stages: int
) -> List[Tuple[int, int]]:
    """Contiguous partition of ``costs`` into at most ``num_stages`` runs
    minimizing the maximum run cost (the classic linear-partition DP).

    Returns half-open ``(start, end)`` index pairs covering the whole list
    in order, one per non-empty stage.  Deterministic: among equally good
    partitions, the earliest cut points win.
    """
    n = len(costs)
    if n == 0:
        return []
    k = max(1, min(int(num_stages), n))
    if k == 1:
        return [(0, n)]
    prefix = [0.0]
    for c in costs:
        prefix.append(prefix[-1] + float(c))
    # best[i]: minimal max-stage cost of costs[:i] under the current stage
    # budget; cuts[j][i]: the last cut index achieving best[i] with budget j
    best = list(prefix[1:])  # budget 1: the whole prefix is one run
    cuts: List[List[int]] = [[0] * (n + 1)]
    for _ in range(2, k + 1):
        nxt = [0.0] * n
        cut = [0] * (n + 1)
        for i in range(1, n + 1):
            best_cost, best_s = prefix[i], 0  # s = 0: keep costs[:i] whole
            for s in range(1, i):
                cost = max(best[s - 1], prefix[i] - prefix[s])
                if cost < best_cost:
                    best_cost, best_s = cost, s
            nxt[i - 1] = best_cost
            cut[i] = best_s
        best = nxt
        cuts.append(cut)
    stages: List[Tuple[int, int]] = []
    i = n
    for cut in reversed(cuts):
        s = cut[i]
        stages.append((s, i))
        i = s
        if i == 0:
            break
    stages.reverse()
    return stages


class LearnedWorkPlacement(PlacementPolicy):
    """Shared learned-cost machinery for adaptive placement policies.

    Keeps a per-block EWMA of *observed* per-instance device work (fed back
    by the executor through :meth:`observe`, launch overhead excluded) plus
    an EWMA of per-instance output bytes, with a static operand-byte
    estimate as the cold-start fallback — the model ``data_parallel`` has
    always used, hoisted so the pipeline stage balancer and the
    tensor-parallel splitter drive off the same observations.
    """

    def __init__(self, smoothing: float = 0.5) -> None:
        self.smoothing = float(smoothing)
        #: EWMA of per-instance device work (us, launch overhead excluded)
        #: per block id, learned from observed launches
        self._work_us: Dict[int, float] = {}
        #: EWMA of per-instance output bytes per block id (prices the
        #: partial-output gathers of a tensor-parallel split)
        self._out_bytes: Dict[int, float] = {}

    def observe(
        self,
        block_id: int,
        batch_size: int,
        duration_us: float,
        num_launches: int,
        spec: Any,
        bytes_written: float = 0.0,
    ) -> None:
        work = max(0.0, duration_us - num_launches * spec.launch_overhead_us)
        per_instance = work / max(1, batch_size)
        s = self.smoothing
        prev = self._work_us.get(block_id)
        self._work_us[block_id] = (
            per_instance if prev is None else s * per_instance + (1 - s) * prev
        )
        per_out = float(bytes_written) / max(1, batch_size)
        prev_out = self._out_bytes.get(block_id)
        self._out_bytes[block_id] = (
            per_out if prev_out is None else s * per_out + (1 - s) * prev_out
        )

    def _batch_cost_us(
        self,
        batch: ScheduledBatch,
        group: "Device",
        kernels: Dict[int, "BlockKernel"],
    ) -> float:
        """Estimated device time of one batched launch of ``batch``.

        Observed EWMA first; static operand-byte memory time as the
        cold-start fallback; when nothing is known at all (the first round
        of a fiber program) the batch *size* is the only signal — the
        units are wrong but relative magnitudes still balance stages.
        """
        spec = group.spec
        size = batch.size
        observed = self._work_us.get(batch.block_id)
        if observed is not None:
            return observed * size + spec.launch_overhead_us
        shared, var, known = self._estimate_bytes(batch, kernels)
        if known:
            bw = spec.mem_bandwidth_gbps * 1e3
            return (shared + var * size) / bw + spec.launch_overhead_us
        return float(size)

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
        group: "Device",
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
class DataParallelPlacement(LearnedWorkPlacement):
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

    Deliberate tradeoff: plan-cache signatures carry batch device (cached
    plans must replay with placement identity), so rotation multiplies the
    signatures of otherwise identical serving rounds by up to N — the
    steady state warms N plan variants instead of one.  The sharding
    benchmark measures the net effect end-to-end and rotation still wins
    clearly (``benchmarks/results/sharding.txt``: ~2.8x vs ~2.0x speedup
    at 4 devices); if a workload with many
    distinct shapes ever thrashes the 256-entry cache bound, pinning the
    rotation (``single``-style) or widening the cache is the knob.
    """

    name = "data_parallel"

    def __init__(self, min_shard: int = 2, smoothing: float = 0.5) -> None:
        if min_shard < 1:
            raise ValueError("data_parallel placement needs min_shard >= 1")
        super().__init__(smoothing=smoothing)
        self.min_shard = int(min_shard)
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
        group: "Device",
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

    def note_reset(self) -> None:
        # rotate the split anchor once per run (serving flush), never
        # between a run's sync rounds: fiber chains spanning rounds keep
        # their producer/consumer shards device-aligned
        if self._placed_since_reset:
            self._round_base += 1
            self._placed_since_reset = False

    def snapshot_state(self) -> Any:
        # everything place_round/note_reset advance; _work_us (observe
        # EWMAs) intentionally excluded — see the base-class docstring
        return (self._unsplit_rr, self._round_base, self._placed_since_reset)

    def restore_state(self, state: Any) -> None:
        self._unsplit_rr, self._round_base, self._placed_since_reset = state

    # -- cost model ------------------------------------------------------------
    def _num_shards(
        self,
        batch: ScheduledBatch,
        group: "Device",
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


@register_placement("pipeline")
class PipelinePlacement(LearnedWorkPlacement):
    """Depth-staged execution: contiguous *depth levels* of a run become
    pipeline stages, stage ``s`` on device ``s``.

    Every scheduler emits a round's batches in dependency (depth) order,
    and a run's sync rounds are themselves depth-ordered (a fiber
    program's round ``r+1`` consumes round ``r``), so any contiguous
    partition of the run's batch stream is execution-safe.  Batches stay
    whole — pipeline moves depth levels, not instances — so the only
    cross-device traffic is the stage boundaries' producer/consumer
    operands, priced by the planner as peer transfers.

    The balancer has two regimes, both costed with the learned per-block
    work EWMA (static operand-byte fallback) that also drives
    ``data_parallel``:

    * **single-round runs** (DFG-accumulation models: the whole flush is
      one sync round holding every depth) — :func:`partition_stages` picks
      the contiguous partition minimizing the busiest stage;
    * **multi-round runs** (fiber programs: one shallow round per depth
      step, nothing to partition within a round) — stages span *rounds*:
      each batch lands on stage ``floor(n * cost_so_far / est_run_cost)``,
      where the run's total cost is an EWMA learned at run boundaries
      (:meth:`note_reset`).  A first, unobserved run stays on stage 0.

    Within one run the stages execute sequentially (stage ``s+1`` consumes
    stage ``s``'s outputs), so a lone flush gains nothing; the win is
    continuous serving, where per-device timeline lanes
    (``timeline_mode = "staged"``,
    :meth:`~repro.serve.loop.DeviceTimeline.launch_round`) let stage ``k``
    of round ``N+1`` start as soon as stage ``k`` of round ``N`` drains —
    while stage ``k+1`` of round ``N`` is still executing downstream.  In
    steady state the flush rate is set by the busiest *stage*, not the
    whole flush, which is exactly what request-level sharding cannot do
    for a deep chain's launch-bound rounds.
    """

    name = "pipeline"
    timeline_mode = "staged"

    def __init__(self, smoothing: float = 0.5) -> None:
        super().__init__(smoothing=smoothing)
        #: estimated cost of the current run so far (us of _batch_cost_us)
        self._run_cost_seen = 0.0
        #: rounds placed in the current run
        self._rounds_this_run = 0
        #: EWMA over completed runs of the run's total cost / round count
        self._est_run_cost: Optional[float] = None
        self._est_rounds: Optional[float] = None

    def place_round(
        self,
        batches: List[ScheduledBatch],
        group: "Device",
        kernels: Dict[int, "BlockKernel"],
    ) -> List[ScheduledBatch]:
        n = group.num_devices
        if not batches:
            return batches
        costs = [self._batch_cost_us(batch, group, kernels) for batch in batches]
        if n <= 1:
            self._run_cost_seen += sum(costs)
            self._rounds_this_run += 1
            return batches
        if self._est_rounds is not None and self._est_rounds > 1.5:
            # multi-round (fiber) run: stage by cumulative cost fraction of
            # the learned whole-run cost, so depth steps stream through the
            # devices in order.  min() guards drifted estimates: a longer
            # run than predicted tops out at the last stage, it never wraps
            # (stages must be monotone for the staged timeline to overlap).
            total = max(self._est_run_cost or 0.0, 1e-9)
            for batch, cost in zip(batches, costs):
                frac = self._run_cost_seen / total
                batch.device = min(n - 1, int(frac * n))
                self._run_cost_seen += cost
        else:
            # single-round run (or first, unobserved run): balanced
            # contiguous partition of this round's batches
            for stage, (start, end) in enumerate(partition_stages(costs, n)):
                for batch in batches[start:end]:
                    batch.device = stage
            self._run_cost_seen += sum(costs)
        self._rounds_this_run += 1
        return batches

    def note_reset(self) -> None:
        # run boundary: fold the finished run's observed shape into the
        # run-cost model that stages the next one
        if self._rounds_this_run:
            s = self.smoothing
            cost, rounds = self._run_cost_seen, float(self._rounds_this_run)
            self._est_run_cost = (
                cost
                if self._est_run_cost is None
                else s * cost + (1 - s) * self._est_run_cost
            )
            self._est_rounds = (
                rounds
                if self._est_rounds is None
                else s * rounds + (1 - s) * self._est_rounds
            )
        self._run_cost_seen = 0.0
        self._rounds_this_run = 0

    def snapshot_state(self) -> Any:
        # the within-run progress place_round advances (the run-shape EWMAs
        # move only at note_reset, which speculation never reaches)
        return (self._run_cost_seen, self._rounds_this_run)

    def restore_state(self, state: Any) -> None:
        self._run_cost_seen, self._rounds_this_run = state


@register_placement("tensor_parallel")
class TensorParallelPlacement(LearnedWorkPlacement):
    """Split individual heavy blocks column/row-wise across group members.

    Every batch stays whole with its home on device 0; a block whose
    *observed* launch time amortizes the split is marked
    ``tp_devices = (0 .. k-1)``.  The executor then charges each member a
    ``1/k``-scaled shard of every launch record (shards run concurrently,
    so the batch's elapsed time is its slowest shard) plus ``k-1``
    peer-priced gathers shipping the remote members' output partials to
    the home device through the group's
    :class:`~repro.devices.interconnect.Interconnect`; the memory planner
    marks the output arenas with the shard set (the partial-output arena
    kind) and plan/specializer fingerprints gain the shard axis.

    The split decision is deliberately *not* optimistic: an unobserved
    block never splits, because a wrong tensor-parallel split charges real
    interconnect gathers where a wrong ``data_parallel`` split only wastes
    launch overhead.  Splitting ``k`` ways pays when the work saved,
    ``work * (1 - 1/k)``, beats the ``k-1`` extra launches plus the gather
    of the ``(k-1)/k`` remote share of the block's output bytes (EWMA of
    observed output sizes).

    Numerics: the NumPy kernel still executes exactly once, unsharded — a
    real ``k``-way matmul split changes the fp reduction order, and
    placement must stay bitwise reference-identical.  Sharding is a
    cost-model transform, exactly like the device simulator itself.
    """

    name = "tensor_parallel"

    def __init__(self, smoothing: float = 0.5) -> None:
        super().__init__(smoothing=smoothing)

    def place_round(
        self,
        batches: List[ScheduledBatch],
        group: "Device",
        kernels: Dict[int, "BlockKernel"],
    ) -> List[ScheduledBatch]:
        n = group.num_devices
        if n <= 1:
            return batches
        interconnect = getattr(group, "interconnect", None)
        for batch in batches:
            batch.device = 0
            k = self._split_ways(batch, group, interconnect)
            batch.tp_devices = tuple(range(k)) if k > 1 else None
        return batches

    def _split_ways(
        self, batch: ScheduledBatch, group: "Device", interconnect: Any
    ) -> int:
        if interconnect is None:
            return 1
        per_instance = self._work_us.get(batch.block_id)
        if per_instance is None:
            return 1
        size = batch.size
        work_us = per_instance * size
        out_bytes = self._out_bytes.get(batch.block_id, 0.0) * size
        spec = group.spec
        best_k, best_net = 1, 0.0
        for k in range(2, group.num_devices + 1):
            saved_us = work_us * (1.0 - 1.0 / k)
            gather_us = (k - 1) * interconnect.transfer_time_us(out_bytes / k)
            extra_us = (k - 1) * (spec.launch_overhead_us + spec.api_overhead_us)
            net = saved_us - gather_us - extra_us
            if net > best_net:
                best_k, best_net = k, net
        return best_k
