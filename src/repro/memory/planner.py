"""The ahead-of-execution memory planner.

After the scheduler has grouped the round's pending rows into batches and
*before* anything executes, :meth:`MemoryPlanner.plan_round` walks the
batches in execution order and decides, for every varying operand of every
batch, how its batched form will be obtained:

``contiguous``
    All per-instance tensors sit at consecutive offsets of one storage
    arena, so the batched operand is a zero-copy arena slice — no gather,
    no copy, no device charge (§5.2's gather elision).
``gather``
    The operands are scattered and gather fusion is off: the plan calls for
    one explicit gather launch copying them into a fresh contiguous buffer
    (what DyNet does).
``fused_gather``
    The operands are scattered and gather fusion is on: the batched kernel
    reads them through indirect addressing, charged as scattered bytes on
    its launch records.
``peer``
    The operands are contiguous in one arena, but that arena lives on a
    *different device* of the runtime's
    :class:`~repro.devices.group.DeviceGroup` than the batch: the whole
    slice ships over the group's interconnect as one priced peer transfer
    and arrives dense.  (Scattered operands with remote parts keep their
    gather classification; the remote parts are peer-charged at resolve
    time, coalesced per source device.)

Planning ahead of execution is possible because the planner *places*
outputs symbolically as it walks: each batch's outputs are assigned a fresh
arena id with instance ``b`` at offset ``b``, recorded per run of a *column*
of the pending graph (:mod:`repro.runtime.tensor`) — an inline-depth batch
is one whole column, so one ``column -> (arena ids, row shift)`` entry
places all of its rows; nothing is written to a column or tensor at plan
time — and a later batch's contiguity is decided from planned placements
before any value exists.  Execution then resolves each
:class:`OperandPlan` into a
:class:`~repro.kernels.batched.BatchedOperand` (:meth:`MemoryPlanner.resolve`,
charging gathers/uploads against the device simulator) and commits outputs
into real arenas under the planned ids (:meth:`MemoryPlanner.commit`).

Who walks a column, and when
----------------------------
A varying operand of a batch of ``B`` rows is an *operand column* of ``B``
arguments — the batch's argument tuples transposed once per input, in C
(:meth:`~repro.runtime.scheduler.ScheduledBatch.operand`) — and the
launch path looks at each operand column once: its cost is per launch, not
per instance per layer:

* **planning** walks a column only until its fate is known: to the end if
  every instance follows its predecessor in one arena (*contiguous* /
  *peer*), otherwise to the first host array or non-adjacent pair, where it
  settles on a gather and stops (most scattered columns diverge within two
  instances);
* **resolve** hands the kernel one of three operand forms.  A *contiguous
  slice* is cut from the arena without looking at the column again.  A
  scattered column of arena tensors is walked once into an *index gather* —
  one ``(arena, positions, offsets)`` segment per source arena, broadcast
  arenas included — and charged per segment (peer transfers per source
  device, the explicit gather by its byte sum); this walk is also where an
  unplanned, unmaterialized operand past planning's stopping point is
  caught.  A column of *host parts* (model inputs) goes through one
  ``ensure_resident_many`` call and is handed over as it is.  Only a column
  mixing host arrays and arena tensors — no zoo model produces one — falls
  back to a per-part walk;
* **the kernel** (:func:`~repro.kernels.batched.index_gather`) moves an
  index gather's rows with one ``take`` per segment, so what a gather costs
  is its segment count (``gather_segments`` in ``RunStats.memory``), not its
  row count;
* **commit** stores ``arena`` and ``offset`` on each output tensor — the
  tensor is its own storage reference.  (Once the round has run, the
  runtime drops each column's ``outs``, the graph's only back edge, so a
  finished round is freed by reference counting.)

Planning is pure classification over the round's *structure* (which blocks,
batched how, with operands placed where), so structurally identical rounds —
the common case for a serving session flushing similar request batches over
and over — replan from scratch needlessly.  The planner therefore keeps a
**plan cache**: each round is fingerprinted by a canonical signature (block
ids, batch sizes, and every varying operand's producer expressed relative to
the round, so concrete arena ids don't leak in), and a hit replays the
cached classification with fresh output arena ids instead of re-walking
placements.  Fingerprinting costs about half of planning, so the cache
stays dormant until a repeat-heavy caller arms it
(:meth:`MemoryPlanner.expect_repeats` — serving sessions do; one-shot runs
pay nothing).  **Arming is idempotent**: sessions re-created across
``Server.run()`` restarts re-arm the same planner freely — a repeat arm is
a no-op that keeps cached templates and hit/miss counters, and the armed
state is inspectable via :attr:`MemoryPlanner.plan_cache_armed` (the call
also reports whether it newly armed).  The cache is bounded by LRU
eviction: once ``_PLAN_CACHE_MAX`` distinct signatures accumulate, the
least-recently-hit template is evicted (``plan_cache_evictions`` in
``RunStats.memory``) instead of dumping the whole working set.

The cache is also where the kernel-specialization tier
(:mod:`repro.specialize`) gets its fingerprints for free: when a
specialization cache is attached (:meth:`MemoryPlanner.attach_specializer`),
every cached template carries one specialization slot per batch, handed to
the instantiated plans on each hit — a ``(round signature, batch position)``
fingerprint with zero per-launch fingerprinting cost.  The planner stays
ignorant of the tier's internals (duck-typed ``make_slot`` /
``release_slots``), so ``repro.memory`` does not import ``repro.specialize``
— and the tier stays ignorant of the planner's: every launch, promoted or
not, goes through :meth:`MemoryPlanner.resolve` and
:meth:`MemoryPlanner.commit`.

This module is the single authority on storage contiguity: nothing outside
``repro.memory`` compares arena placements.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..kernels.batched import BatchedOperand, BatchedOutput, Segment
from ..runtime.tensor import LazyTensor
from .arena import StorageArena, next_arena_id

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..kernels.batched import BlockKernel
    from ..runtime.device import DeviceSimulator
    from ..runtime.scheduler import ScheduledBatch


class OperandKind(Enum):
    """How one block operand reaches its batched kernel."""

    SHARED = "shared"
    CONTIGUOUS = "contiguous"
    GATHER = "gather"
    FUSED_GATHER = "fused_gather"
    #: contiguous in one arena, but that arena lives on a *different* device
    #: of the group than the consuming batch: one priced peer transfer ships
    #: the whole slice over the interconnect, after which it is dense locally
    PEER = "peer"


# hot-path aliases: Enum member access goes through a descriptor, so the
# planner binds the members once at import time
_SHARED = OperandKind.SHARED
_CONTIGUOUS = OperandKind.CONTIGUOUS
_GATHER = OperandKind.GATHER
_FUSED_GATHER = OperandKind.FUSED_GATHER
_PEER = OperandKind.PEER

#: ``set(map(type, column))`` of the two homogeneous scattered columns
_ARENA_COLUMN = {LazyTensor}
_HOST_COLUMN = {np.ndarray}


def _out_of_order(tensor: LazyTensor) -> RuntimeError:
    return RuntimeError(
        f"memory planner: operand {tensor!r} (block "
        f"{tensor.column.block_id}) is neither materialized nor planned "
        f"earlier in this round — the scheduler emitted batches "
        f"out of dependency order"
    )


class OperandPlan:
    """The planner's verdict for one block input of one batch."""

    __slots__ = ("index", "kind", "arena_id", "start")

    def __init__(
        self,
        index: int,
        kind: OperandKind,
        arena_id: Optional[int] = None,
        start: Optional[int] = None,
    ) -> None:
        self.index = index
        self.kind = kind
        #: source placement for contiguous multi-instance operands: the arena
        #: id and the offset of the first instance (None for batch-of-one /
        #: shared)
        self.arena_id = arena_id
        self.start = start

    def __repr__(self) -> str:
        return f"OperandPlan(input={self.index}, kind={self.kind.value})"


@dataclass
class BatchPlan:
    """Everything the executor needs to know about one batch's memory.

    ``batch`` is released (set to ``None``) by :meth:`MemoryPlanner.commit`
    once the batch has executed, so retained plans (``last_plans``) keep only
    the lightweight classification — not the round's graph and arenas.
    """

    batch: Optional["ScheduledBatch"]
    batch_size: int
    operands: List[OperandPlan]
    #: pre-allocated arena ids, one per block output; the commit step creates
    #: the arenas under exactly these ids so later plans stay valid
    output_arena_ids: List[int]
    #: device index (within the runtime's device group) this batch executes
    #: on; its output arenas are born on that device
    device: int = 0
    #: the specialization slot for this batch's fingerprint (set only for
    #: plans instantiated from cached templates while a specialization cache
    #: is attached; see :mod:`repro.specialize`)
    spec_slot: Optional[Any] = None

    def count(self, kind: OperandKind) -> int:
        return sum(1 for op in self.operands if op.kind is kind)


class _PlanTemplate:
    """Cached classification of one round, relative to the round itself.

    ``entries`` holds one ``(batch_size, num_outputs, operand_specs)``
    triple per batch; ``operand_specs`` preserves the block-input order the
    executor relies on.  Each spec is either a ready-to-share
    :class:`OperandPlan` reused as-is (shared / gather / batch-of-one /
    external-arena operands — nothing in them names a fresh arena) or a
    ``(index, kind, producer_batch_idx, out_k, start)`` tuple for a
    contiguous operand sourced from an output planned earlier in the same
    round, rebound to that batch's fresh arena id on instantiation.
    ``counts`` is the round's precomputed per-kind operand tally.
    ``slots`` carries one specialization slot per batch when a
    specialization cache is attached (None otherwise): the slot *is* the
    batch's ``(round signature, batch position)`` fingerprint, handed to
    instantiated plans on every hit.
    """

    __slots__ = ("entries", "counts", "slots")

    def __init__(
        self,
        entries: List[Tuple],
        counts: Dict[str, int],
        slots: Optional[List[Any]] = None,
    ) -> None:
        self.entries = entries
        self.counts = counts
        self.slots = slots


#: plan-cache size bound: once this many distinct signatures accumulate,
#: the least-recently-hit template is evicted (steady serving loads keep a
#: small hot working set; evicting one cold template never dumps it the way
#: the earlier clear-everything overflow policy did)
_PLAN_CACHE_MAX = 256

class MemoryPlanner:
    """Plans arena placement and operand contiguity for scheduled batches."""

    def __init__(self, gather_fusion: bool = True, plan_cache: bool = True) -> None:
        self.gather_fusion = gather_fusion
        #: plans of the most recent round (introspection / tests)
        self.last_plans: List[BatchPlan] = []
        #: cumulative per-kind operand counts since the last reset
        self.operand_counts: Dict[str, int] = {k.value: 0 for k in OperandKind}
        #: source arenas summed over the gathered columns resolved since the
        #: last reset: an index gather costs one take per segment, so this —
        #: not the row count — is what a gather-free layout would save
        self.gather_segments = 0
        self.plan_cache_enabled = plan_cache
        self._plan_cache: "OrderedDict[Tuple, _PlanTemplate]" = OrderedDict()
        #: cumulative cache accounting over the planner's lifetime (NOT
        #: cleared by :meth:`reset`, so a session reports its cache hit rate
        #: across flush rounds)
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_evictions = 0
        #: the attached kernel-specialization cache (duck-typed; see
        #: :meth:`attach_specializer`), or None when the tier is off
        self._spec_cache: Optional[Any] = None
        #: the cache stays dormant until a repeat-heavy caller *arms* it
        #: (:meth:`expect_repeats`): fingerprinting a round costs about half
        #: of planning it, which only pays off when rounds actually repeat —
        #: serving sessions do, one-shot ``run()`` calls do not and must not
        #: fund a cache they can never hit
        self.plan_cache_armed = False
        #: sync-round ordinal within the current run/flush, and the ordinals
        #: known to produce uncacheable signatures (rounds referencing
        #: earlier rounds' concrete arenas — fiber programs — can never hit,
        #: so after the first observation those ordinals skip fingerprinting
        #: entirely)
        self._round_ordinal = 0
        self._uncacheable_ordinals: set = set()

    def expect_repeats(self) -> bool:
        """Arm the plan cache: the caller expects structurally repeating
        rounds (serving sessions call this at construction).

        Idempotent: a ``Server.run()`` restart re-creates its sessions over
        the same engine and re-arms freely — a repeat arm is a no-op that
        keeps cached templates and hit/miss counters.  Returns True when
        this call newly armed the cache, False when it was already armed;
        the armed state stays inspectable via :attr:`plan_cache_armed`.
        """
        newly_armed = not self.plan_cache_armed
        self.plan_cache_armed = True
        return newly_armed

    def attach_specializer(self, cache: Any) -> None:
        """Attach a kernel-specialization cache: from now on every cached
        plan template carries one specialization slot per batch (allocated
        via ``cache.make_slot()``) and evicted templates release their
        frozen state via ``cache.release_slots()``.  Duck-typed so that
        ``repro.memory`` never imports ``repro.specialize``."""
        self._spec_cache = cache

    def reset(self) -> None:
        """Clear per-run state.  The plan cache (and its hit/miss counters)
        survives: cached templates are content-addressed by round structure,
        so they stay valid across runs and across a session's flush rounds —
        which is exactly when they pay off."""
        self.last_plans = []
        self.operand_counts = {k.value: 0 for k in OperandKind}
        self.gather_segments = 0
        self._round_ordinal = 0

    # -- planning --------------------------------------------------------------
    def plan_round(
        self, batches: List["ScheduledBatch"], kernels: Dict[int, "BlockKernel"]
    ) -> List[BatchPlan]:
        """Plan memory for one scheduled round, in execution order.

        With the cache enabled *and armed* (:meth:`expect_repeats`), a round
        structurally identical to an earlier one replays the cached
        classification (fresh output arena ids, operand sources rebound)
        instead of re-deriving placements; otherwise rounds plan uncached
        with no fingerprinting overhead.
        """
        self._round_ordinal += 1
        if not (self.plan_cache_enabled and self.plan_cache_armed):
            plans = self._plan_round_uncached(batches, kernels)
        elif self._round_ordinal in self._uncacheable_ordinals:
            # this sync-round position referenced earlier rounds' concrete
            # arenas before — it can never hit, so skip even fingerprinting
            self.cache_misses += 1
            plans = self._plan_round_uncached(batches, kernels)
        else:
            plans = self._plan_round_cached(batches, kernels)
        self.last_plans = plans
        return plans

    def _plan_round_cached(
        self, batches: List["ScheduledBatch"], kernels: Dict[int, "BlockKernel"]
    ) -> List[BatchPlan]:
        """Replay the cached template of this round's signature, or plan the
        round uncached and cache its template."""
        signature, cacheable = self._round_signature(batches, kernels)
        template = self._plan_cache.get(signature)
        if template is not None:
            plans = self._instantiate(template, batches)
            if plans is not None:
                self.cache_hits += 1
                self._plan_cache.move_to_end(signature)  # LRU touch
                totals = self.operand_counts
                for kind_value, n in template.counts.items():
                    if n:
                        totals[kind_value] += n
                return plans
        self.cache_misses += 1
        plans = self._plan_round_uncached(batches, kernels)
        if not cacheable:
            self._uncacheable_ordinals.add(self._round_ordinal)
            return plans
        if len(self._plan_cache) >= _PLAN_CACHE_MAX:
            # evict the least-recently-hit template, releasing any
            # specialization state frozen against it
            _, evicted = self._plan_cache.popitem(last=False)
            self.cache_evictions += 1
            if self._spec_cache is not None:
                self._spec_cache.release_slots(evicted.slots)
        template = self._make_template(plans)
        self._plan_cache[signature] = template
        if template.slots is not None:
            # the freshly fingerprinted round counts toward its own
            # promotion threshold too
            for plan, slot in zip(plans, template.slots):
                plan.spec_slot = slot
        return plans

    def _plan_round_uncached(
        self,
        batches: List["ScheduledBatch"],
        kernels: Dict[int, "BlockKernel"],
    ) -> List[BatchPlan]:
        #: symbolic placements of the rows this round will execute:
        #: ``column -> (output arena ids, shift, rows)`` for the first run of
        #: each column, ``seq -> (output arena ids, offset)`` for any other
        #: row; tensors from earlier rounds carry their real arena.  Nothing
        #: is written to a column or tensor at plan time.
        runs: Dict[Any, Tuple] = {}
        rows_by_seq: Dict[int, Tuple[List[int], int]] = {}
        #: device owning each arena planned this round (earlier rounds'
        #: arenas carry their device on the concrete StorageArena)
        arena_devices: Dict[int, int] = {}
        plans: List[BatchPlan] = []
        counts = self.operand_counts

        for batch in batches:
            block = kernels[batch.block_id].block
            size = batch.size
            device = batch.device
            if size == 1:
                # batch of one never gathers: every varying operand only gains
                # a leading batch axis (a zero-copy reshape); a remote operand
                # is still shipped over — resolution charges the transfer from
                # the operand's concrete storage
                operands = [
                    OperandPlan(inp.index, _SHARED if inp.shared else _CONTIGUOUS)
                    for inp in block.inputs
                ]
            else:
                operands = [
                    OperandPlan(inp.index, _SHARED)
                    if inp.shared
                    else self._plan_operand(
                        inp.index,
                        batch.operand(inp.index),
                        runs,
                        rows_by_seq,
                        arena_devices,
                        device,
                    )
                    for inp in block.inputs
                ]
            output_ids = [next_arena_id() for _ in range(block.num_outputs)]
            for arena_id in output_ids:
                arena_devices[arena_id] = device
            # row b of the launch lands at offset b: the first run of a
            # column placed is one entry (offset = row - shift), any other
            # row one entry under its round sequence number (unique among
            # pending rows)
            base = 0
            for col, rows in batch.segments:
                if type(rows) is range and col not in runs:
                    runs[col] = (output_ids, rows.start - base, rows)
                else:
                    seqs = col.seqs
                    for b, row in enumerate(rows, base):
                        rows_by_seq[seqs[row]] = (output_ids, b)
                base += len(rows)
            for op in operands:
                counts[op.kind.value] += 1
            plans.append(
                BatchPlan(
                    batch=batch,
                    batch_size=size,
                    operands=operands,
                    output_arena_ids=output_ids,
                    device=device,
                )
            )

        return plans

    # -- plan cache ------------------------------------------------------------
    def _round_signature(
        self, batches: List["ScheduledBatch"], kernels: Dict[int, "BlockKernel"]
    ) -> Tuple[Tuple, bool]:
        """Canonical fingerprint of one scheduled round, plus whether it is
        worth caching (False when the signature pins concrete earlier-round
        placements — arena ids are never reused, so such a round cannot
        recur).

        Per batch: the block, the batch's *membership* — each member row's
        round sequence number (:attr:`~repro.runtime.tensor.Column.seqs`,
        assigned in invoke order by the runtime, so it is canonical across
        rounds) —
        and, for every varying (non-shared) block input, the operand column:
        in-round producers named by their sequence number, producers
        materialized in *earlier* rounds pinned by their concrete
        ``(arena_id, offset)`` placement (arena ids are never recycled, so a
        stale match is impossible), host arrays by presence only
        (classification never looks at their values).

        Membership plus columns is what makes sequence-number references
        sound: membership pins where every producer sits positionally
        (batch, offset), columns pin which producer each operand names —
        equal signatures therefore imply identical placements, hence
        identical plans.  Shared (weight) inputs are skipped exactly as
        :meth:`_plan_operand` skips them.
        """
        lazy = LazyTensor
        cacheable = True
        sig: List[Tuple] = []
        add = sig.append
        for batch in batches:
            # placement identity: equal signatures must imply identical
            # device assignment, or a cache hit could replay a plan whose
            # peer-transfer classification no longer matches the round.
            members = (batch.device, *batch.seqs())
            if batch.size == 1:
                # batch of one classifies from the block alone
                add((batch.block_id, members))
                continue
            columns: List[Tuple] = []
            for inp in kernels[batch.block_id].block.inputs:
                if inp.shared:
                    continue  # classified SHARED without looking at operands
                col: List[Any] = []
                cadd = col.append
                for arg in batch.operand(inp.index):
                    if type(arg) is lazy:
                        arena = arg.arena
                        if arena is not None:
                            cadd(("x", arena.arena_id, arg.offset))
                            cacheable = False
                        else:
                            cadd((arg.column.seqs[arg.row], arg.output_index))
                    else:
                        cadd("h")
                columns.append(tuple(col))
            add((batch.block_id, members, tuple(columns)))
        return tuple(sig), cacheable

    def _make_template(self, plans: List[BatchPlan]) -> _PlanTemplate:
        """Strip freshly made plans down to a reusable, round-relative
        template.

        Operand plans that name no fresh arena (shared / gather /
        batch-of-one / external-arena sources) are round-independent and
        stored as ready-to-share :class:`OperandPlan` objects; only
        contiguous operands sourced from the round's own outputs need
        rebinding and are kept as symbolic specs.
        """
        arena_origin: Dict[int, Tuple[int, int]] = {}
        for bi, plan in enumerate(plans):
            for k, arena_id in enumerate(plan.output_arena_ids):
                arena_origin[arena_id] = (bi, k)

        counts: Dict[str, int] = {}
        entries: List[Tuple] = []
        for plan in plans:
            specs: List[Any] = []
            for op in plan.operands:
                counts[op.kind.value] = counts.get(op.kind.value, 0) + 1
                origin = arena_origin.get(op.arena_id) if op.arena_id is not None else None
                if origin is None:
                    specs.append(op)  # round-independent: reuse as-is
                else:
                    specs.append((op.index, op.kind, origin[0], origin[1], op.start))
            entries.append((plan.batch_size, len(plan.output_arena_ids), specs))
        spec_cache = self._spec_cache
        slots = (
            [spec_cache.make_slot() for _ in plans] if spec_cache is not None else None
        )
        return _PlanTemplate(entries, counts, slots)

    def _instantiate(
        self, template: _PlanTemplate, batches: List["ScheduledBatch"]
    ) -> Optional[List[BatchPlan]]:
        """Replay a cached template against this round's batches: allocate
        fresh output arena ids and rebind round-sourced contiguous operands.

        Returns None when the template's shape does not line up with the
        scheduled batches (cannot happen for signatures produced by
        :meth:`_round_signature`, but kept as a cheap invariant so a bad hit
        degrades to a plain miss rather than a bad plan).
        """
        entries = template.entries
        if len(entries) != len(batches) or any(
            entry[0] != batch.size for entry, batch in zip(entries, batches)
        ):
            return None
        plans: List[BatchPlan] = []
        round_ids: List[List[int]] = []
        slots = template.slots
        for bi, ((_, num_outputs, specs), batch) in enumerate(zip(entries, batches)):
            output_ids = [next_arena_id() for _ in range(num_outputs)]
            round_ids.append(output_ids)
            operands: List[OperandPlan] = [
                spec
                if type(spec) is OperandPlan
                # (index, kind, producer batch, out_k, start): rebind to the
                # producer's fresh arena id, preserving block-input order
                else OperandPlan(
                    spec[0], spec[1], arena_id=round_ids[spec[2]][spec[3]], start=spec[4]
                )
                for spec in specs
            ]
            plans.append(
                BatchPlan(
                    batch=batch,
                    batch_size=batch.size,
                    operands=operands,
                    output_arena_ids=output_ids,
                    device=batch.device,
                    spec_slot=slots[bi] if slots is not None else None,
                )
            )
        # the operand tally is the template's precomputed ``counts``, merged
        # into the planner's totals by the caller (_plan_round_cached)
        return plans

    def _plan_operand(
        self,
        index: int,
        column,
        runs: Dict[Any, Tuple],
        rows_by_seq: Dict[int, Tuple[List[int], int]],
        arena_devices: Dict[int, int],
        batch_device: int,
    ) -> OperandPlan:
        """Classify one operand column, stopping at the first break.

        A column is contiguous only if every instance follows its
        predecessor in one arena, so the walk settles on a gather at the
        first host array or non-adjacent pair (most scattered columns
        diverge within two instances) and leaves the rest of the column to
        :meth:`resolve`'s own walk."""
        lazy = LazyTensor
        arena_id = start = -1
        expected = 0
        first_device = 0
        for arg in column:
            if type(arg) is not lazy:
                break  # a host array is never already on-device-contiguous
            arena = arg.arena
            if arena is None:
                # pending, so planned earlier in this round (or out of order)
                row = arg.row
                run = runs.get(arg.column)
                if run is not None and run[2].start <= row < run[2].stop:
                    ids, offset = run[0], row - run[1]
                else:
                    placed = rows_by_seq.get(arg.column.seqs[row])
                    if placed is None:
                        raise _out_of_order(arg)
                    ids, offset = placed
                this_arena = ids[arg.output_index]
                device = arena_devices.get(this_arena, 0)
            else:
                this_arena = arena.arena_id
                offset = arg.offset
                device = arena.device_index
            if start < 0:
                arena_id, start, first_device = this_arena, offset, device
            elif this_arena != arena_id or offset != expected:
                break
            expected = offset + 1
        else:
            # one arena holds the whole slice (an arena lives wholly on one
            # device); if that device is not the batch's, the slice ships over
            # the interconnect as one priced peer transfer
            kind = _CONTIGUOUS if first_device == batch_device else _PEER
            return OperandPlan(index, kind, arena_id=arena_id, start=start)
        return OperandPlan(index, _FUSED_GATHER if self.gather_fusion else _GATHER)

    # -- execution-time resolution ---------------------------------------------
    def resolve(
        self,
        plan: BatchPlan,
        kernel: "BlockKernel",
        device: "DeviceSimulator",
        options: Any,
    ) -> List[BatchedOperand]:
        """Turn a batch plan into kernel operands, charging the device.

        Charging is indexed by the plan's device: explicit gathers and
        host-array uploads hit the member device the batch executes on
        (``device.device_for(plan.device)``), and operands whose storage
        lives on *another* member are shipped over the group's interconnect
        first (``device.peer_transfer``) — contiguous remote slices as one
        transfer, scattered remote parts coalesced per source device.
        Contiguous local operands stay zero-copy arena views.
        """
        block = kernel.block
        batch = plan.batch
        batch_size = plan.batch_size
        batch_device = plan.device
        local = device.device_for(batch_device)
        resolved: List[BatchedOperand] = []
        validate = options.validate
        batch_memcpy = options.batch_memcpy
        ensure_resident = local.ensure_resident
        # a shared or contiguous operand is resolved from its first instance
        first_row = batch.first_args()

        for op in plan.operands:
            kind = op.kind
            index = op.index
            if kind is _SHARED:
                first = first_row[index]
                value = first.value if isinstance(first, LazyTensor) else np.asarray(first)
                if validate:
                    for oarg in batch.operand(index)[1:]:
                        ov = oarg.value if isinstance(oarg, LazyTensor) else np.asarray(oarg)
                        if not np.array_equal(np.asarray(ov), np.asarray(value)):
                            raise RuntimeError(
                                f"block {block.name}: input "
                                f"{block.inputs[index].name} marked shared but "
                                f"differs across batched rows"
                            )
                if not isinstance(first, LazyTensor):
                    ensure_resident(value, batch_memcpy)
                resolved.append(BatchedOperand(shared=True, array=value))
                continue

            if kind is _CONTIGUOUS or kind is _PEER:
                resolved.append(
                    self._resolve_contiguous(
                        op, first_row[index], batch_size, device, batch_device, options
                    )
                )
                continue

            # scattered: the column is looked at once, here.  The rows are
            # only moved inside the kernel's own gather (the read is device
            # work — charged as a gather launch or as scattered bytes — not
            # host dispatch time).  Instances living on other devices of the
            # group ship over the interconnect first, coalesced per source.
            args = batch.operand(index)
            kinds = set(map(type, args))
            segments = parts = None
            if kinds == _ARENA_COLUMN:
                segments, gathered = self._arena_segments(args, device, batch_device)
            elif kinds == _HOST_COLUMN:
                local.ensure_resident_many(args, batch_memcpy)
                parts = args
            else:
                parts = self._mixed_parts(args, device, batch_device, options)
            if kind is _GATHER:
                # one explicit gather launch copies the scattered operand into
                # a contiguous buffer; downstream the operand is dense, so the
                # kernel performs the gather without scattered-read accounting
                if parts is not None:
                    gathered = float(sum(p.nbytes for p in parts))
                local.gather(gathered)
            # FUSED_GATHER: the kernel reads the scattered instances itself
            resolved.append(
                BatchedOperand(
                    shared=False,
                    parts=parts,
                    segments=segments,
                    scattered=kind is _FUSED_GATHER,
                )
            )

        return resolved

    def _arena_segments(
        self, args: Sequence[LazyTensor], device, batch_device: int
    ) -> Tuple[List[Segment], float]:
        """Resolve a column of arena tensors into one index-gather segment
        per source arena (first-appearance order), charging the peer
        transfers of segments living on other devices.  Returns the segments
        and the gathered byte count."""
        groups: Dict[Any, Tuple[List[int], List[int]]] = {}
        for position, tensor in enumerate(args):
            arena = tensor.arena
            group = groups.get(arena)
            if group is None:
                groups[arena] = group = ([], [])
            group[0].append(position)
            group[1].append(tensor.offset)
        if None in groups:
            # planning stops at a column's first break, so this walk is the
            # one that sees the rest of the column
            raise _out_of_order(args[groups[None][0][0]])
        self.gather_segments += len(groups)
        whole = len(groups) == 1
        segments: List[Segment] = []
        remote_bytes: Dict[int, float] = {}
        gathered = 0.0
        for arena, (positions, offsets) in groups.items():
            nbytes = arena.instance_nbytes * len(offsets)
            gathered += nbytes
            src = arena.device_index
            if src != batch_device:
                # every instance of a broadcast arena is the same underlying
                # array: the arena ships once per consumer device
                remote_bytes[src] = remote_bytes.get(src, 0.0) + (
                    arena.nbytes if arena.broadcast else nbytes
                )
            segments.append(
                (
                    arena,
                    None if whole else np.array(positions, dtype=np.intp),
                    np.array(offsets, dtype=np.intp),
                )
            )
        for src, nbytes in remote_bytes.items():
            device.peer_transfer(src, batch_device, nbytes)
        return segments, gathered

    def _mixed_parts(
        self, args: Sequence[Any], device, batch_device: int, options
    ) -> List[np.ndarray]:
        """The per-part fallback for a column mixing host arrays and arena
        tensors (no zoo model produces one): host arrays upload one by one,
        arena instances are realized as views, remote ones peer-charged
        exactly as :meth:`_arena_segments` charges them."""
        ensure_resident = device.device_for(batch_device).ensure_resident
        parts: List[np.ndarray] = []
        remote_bytes: Dict[int, float] = {}
        sources: set = set()
        for arg in args:
            if isinstance(arg, LazyTensor):
                arena = arg.arena
                if arena is None:
                    raise _out_of_order(arg)
                src = arena.device_index
                if src != batch_device and not (arena.broadcast and arena in sources):
                    remote_bytes[src] = remote_bytes.get(src, 0.0) + (
                        arena.nbytes if arena.broadcast else arena.instance_nbytes
                    )
                sources.add(arena)
                parts.append(arena.view(arg.offset))
            else:
                arr = np.asarray(arg)
                ensure_resident(arr, options.batch_memcpy)
                parts.append(arr)
        self.gather_segments += len(sources)
        for src, nbytes in remote_bytes.items():
            device.peer_transfer(src, batch_device, nbytes)
        return parts

    def _resolve_contiguous(
        self, op: OperandPlan, first, batch_size: int, device, batch_device: int, options
    ) -> BatchedOperand:
        """A contiguous operand is its first instance's arena slice (planning
        has checked the rest of the column)."""
        local = device.device_for(batch_device)
        if batch_size == 1:
            arg = first
            if isinstance(arg, LazyTensor):
                arena = arg.arena
                if arena is None:
                    raise _out_of_order(arg)
                src = arena.device_index
                if src != batch_device:
                    # singleton batches classify without looking at operands
                    # (the planning fast path), so the remote read is both
                    # charged and re-classified here — the peer operand count
                    # must agree with the device's transfer counters
                    device.peer_transfer(src, batch_device, arena.instance_nbytes)
                    counts = self.operand_counts
                    counts[_PEER.value] += 1
                    counts[_CONTIGUOUS.value] -= 1
                arr = arena.view(arg.offset)
            else:
                arr = np.asarray(arg)
                local.ensure_resident(arr, options.batch_memcpy)
            return BatchedOperand(shared=False, array=arr[None])  # zero-copy leading axis
        arena = first.arena
        if arena is None or (arena.arena_id, first.offset) != (op.arena_id, op.start):
            found = None if arena is None else (arena.arena_id, first.offset)
            raise RuntimeError(
                f"memory plan violated: operand {op.index} expected at arena "
                f"{op.arena_id}+{op.start}, found {found} — batches "
                f"executed out of plan order"
            )
        if op.kind is _PEER:
            # the whole contiguous slice ships from its owning device in one
            # priced transfer, arriving dense on the batch's device; a
            # broadcast arena's slice is one underlying array however large
            # the batch, so it ships once, not batch_size times
            nbytes = (
                arena.nbytes if arena.broadcast else arena.instance_nbytes * batch_size
            )
            device.peer_transfer(arena.device_index, batch_device, nbytes)
        return BatchedOperand(shared=False, array=arena.slice(op.start, batch_size))

    # -- execution-time commit ---------------------------------------------------
    def commit(
        self,
        plan: BatchPlan,
        outputs: List[BatchedOutput],
        device: "DeviceSimulator",
    ) -> List[StorageArena]:
        """Store a batch's outputs into arenas under the planned ids and
        point every row's output at its arena instance (two attribute stores
        per tensor — the tensor is its own storage reference).

        Arenas are born on the device the batch executed on (and enter that
        member's residency cache), so later rounds price reads from them by
        where they actually live."""
        batch = plan.batch
        size = plan.batch_size
        segments = batch.segments
        local = device.device_for(plan.device)
        arenas: List[StorageArena] = []
        for k, (out, arena_id) in enumerate(zip(outputs, plan.output_arena_ids)):
            if out.batched:
                arena = StorageArena.from_batched(
                    out.array, arena_id=arena_id, device_index=plan.device
                )
            else:
                arena = StorageArena.from_broadcast(
                    out.array, size, arena_id=arena_id, device_index=plan.device
                )
            local.note_arena(arena)
            b = 0
            for col, rows in segments:
                outs = col.outs
                n = col.num_outputs
                for row in rows:
                    tensor = outs[row * n + k]
                    tensor.arena = arena
                    tensor.offset = b
                    b += 1
            arenas.append(arena)
        # release the round's graph: retained plans keep only the
        # classification
        plan.batch = None
        return arenas
