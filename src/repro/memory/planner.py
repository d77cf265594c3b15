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
  is its segment count (the ``segments`` of the operand's trace record,
  summed as ``gather_segments`` in ``RunStats.memory``), not its row count;
* **commit** stores ``arena`` and ``offset`` on each output tensor — the
  tensor is its own storage reference.  (Once the round has run, the
  runtime drops each column's ``outs``, the graph's only back edge, so a
  finished round is freed by reference counting.)

Every round is planned from scratch, with no plan reused across rounds:
fingerprinting a round costs about half of planning it, and the traffic
the paper is about (distinct tree and sequence shapes per request) rarely
repeats a round's structure.

This module is the single authority on storage contiguity: nothing outside
``repro.memory`` compares arena placements.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..kernels.batched import BatchedOperand, BatchedOutput, Segment
from ..runtime.tensor import LazyTensor
from .arena import StorageArena, next_arena_id

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..kernels.batched import BlockKernel
    from ..devices.group import DeviceGroup
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

    __slots__ = ("index", "kind", "arena_id", "start", "segments")

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
        #: source arenas a gathered column of arena tensors was resolved
        #: from (set by :meth:`MemoryPlanner.resolve`; 0 for every other
        #: operand)
        self.segments = 0

    def __repr__(self) -> str:
        return f"OperandPlan(input={self.index}, kind={self.kind.value})"


@dataclass
class BatchPlan:
    """Everything the executor needs to know about one batch's memory.

    ``batch`` is released (set to ``None``) by :meth:`MemoryPlanner.commit`
    once the batch has executed, so a plan outliving its round keeps only
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


class MemoryPlanner:
    """Plans arena placement and operand contiguity for scheduled batches."""

    def __init__(self, gather_fusion: bool = True) -> None:
        self.gather_fusion = gather_fusion

    # -- planning --------------------------------------------------------------
    def plan_round(
        self, batches: List["ScheduledBatch"], kernels: Dict[int, "BlockKernel"]
    ) -> List[BatchPlan]:
        """Plan memory for one scheduled round, in execution order."""
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
        device: "DeviceGroup",
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
                op.segments = len(segments)
            elif kinds == _HOST_COLUMN:
                local.ensure_resident_many(args, batch_memcpy)
                parts = args
            else:
                parts, op.segments = self._mixed_parts(args, device, batch_device, options)
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
    ) -> Tuple[List[np.ndarray], int]:
        """The per-part fallback for a column mixing host arrays and arena
        tensors (no zoo model produces one): host arrays upload one by one,
        arena instances are realized as views, remote ones peer-charged
        exactly as :meth:`_arena_segments` charges them.  Returns the parts
        and the number of source arenas."""
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
        for src, nbytes in remote_bytes.items():
            device.peer_transfer(src, batch_device, nbytes)
        return parts, len(sources)

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
                    op.kind = _PEER
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
    def commit(self, plan: BatchPlan, outputs: List[BatchedOutput]) -> List[StorageArena]:
        """Store a batch's outputs into arenas under the planned ids and
        point every row's output at its arena instance (two attribute stores
        per tensor — the tensor is its own storage reference).

        Arenas are born on the device the batch executed on
        (``device_index``), so later rounds price reads from them by where
        they actually live."""
        batch = plan.batch
        size = plan.batch_size
        segments = batch.segments
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
