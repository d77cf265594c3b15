"""Frozen specialized execution state for one promoted fingerprint.

A :class:`SpecializedEntry` is built from one *oracle* launch — the generic
``planner.resolve`` → ``kernel.execute_batched`` path — of a batch whose
plan-cache slot crossed the promotion threshold.  Everything the generic
path re-derives per round is frozen at build time:

* the **gather layout**: one compact step per operand recording how the
  block input is obtained (shared array reuse, arena slice, scattered
  parts), with reusable operand descriptors and parts lists mutated in
  place — no per-launch allocation;
* the **host-array references**: shared operands and host-valued parts keep
  the promotion round's arrays by identity; a launch whose host args are
  the same objects (the steady-state serving case) skips per-part
  type/shape/dtype validation *and* the residency bookkeeping, because the
  device residency cache is identity-keyed and monotone — an array the
  entry holds alive stays resident with a guaranteed zero-charge;
* the **device charges**: per-source peer-transfer bytes and explicit
  gather bytes, precomputed from the promotion launch and replayed as a
  flat list instead of re-coalescing per launch;
* the **launch records**: the cost records the oracle produced, replayed
  verbatim (FLOPs/bytes are pure functions of the frozen shapes);
* the **output arena templates**: shape and batched/broadcast layout per
  block output, sized from the fingerprint, so commit skips the generic
  layout inspection;
* optional **stack buffers**: preallocated ``[B, ...]`` arrays the fused
  gather stacks into, only for inputs the block program proved can never
  escape the block as a view (:attr:`BlockKernel.reusable_inputs`).

Soundness contract
------------------
An entry is only ever handed plans instantiated from the *same* plan-cache
template its slot hangs off.  For multi-instance batches the round
signature already pins the block, the batch membership, the device
assignment, every varying operand's producer *positionally*, and which args
are host-valued — so a correctly executed round delivers each lazy operand
from the same producer batch on the same device as the promotion round, and
the per-launch checks do not re-derive what the signature guarantees.  What
the signature deliberately does **not** pin is re-verified every launch by
the cheap always-on invariant pass:

* host-array identity for shared operands; host args that are *not* the
  frozen objects revalidate shape/dtype and re-enter the residency
  bookkeeping (then re-freeze, so a serving loop that swaps its host
  arrays once is fast again on the next round);
* first-element shape/dtype per varying operand (catches shape drift
  propagating from changed host inputs through unpromoted producers; a
  mid-batch ragged part additionally fails the kernel's own stack, exactly
  as it would on the generic path);
* the planner's own placement invariant for contiguous slices;
* batch-of-one operands entirely (singleton signatures record membership
  but no operand columns, so nothing about their args is pinned).

Verification happens strictly before the frozen peer/gather charges, so a
failed launch demotes with the device simulator untouched and the generic
fallback re-charges from zero.  (Residency uploads — ``ensure_resident``
for not-yet-frozen host args — may run during verification; they are
idempotent and the generic fallback would charge the identical
first-upload, so accounting stays exact.)

The numerical path is the kernel's own block program
(:meth:`BlockKernel.run_program`, the one step loop the generic path runs)
with accounting off and the entry's stack buffers — same validation, same
NumPy calls in the same order — and :meth:`crosscheck` (opt-in,
``ExecutionOptions.specialize_crosscheck``) re-runs it accounted and
unbuffered on the same operands and compares outputs and launch records.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..kernels.batched import BatchedOperand, BatchedOutput, LaunchRecord
from ..memory.arena import StorageArena, TensorStorage
from ..memory.planner import BatchPlan, OperandKind
from ..runtime.tensor import LazyTensor

# verify-and-bind step opcodes (one step per operand, in block-input order)
_SHARED = 0  #: (op, input, frozen host array)
_SLICE = 1  #: (op, pos, input, broadcast?, item_shape, dtype) — contiguous/peer
_SINGLE_LAZY = 2  #: (op, pos, input, shape, dtype) — batch-of-one arena view
_SINGLE_HOST = 3  #: (op, pos, input, [ref], shape, dtype) — batch-of-one host
_SCATTER_LAZY = 4  #: (op, pos, input, item_shape, dtype) — every part lazy
_SCATTER_MIXED = 5  #: (op, pos, input, lazy_idx, host_idx, refs, shape, dtype)

# frozen charge opcodes
_PEER_CHARGE = 0  #: (op, src_device, nbytes)
_GATHER_CHARGE = 1  #: (op, 0, nbytes)


class SpecializedEntry:
    """One promoted fingerprint's frozen dispatch + execution state."""

    __slots__ = (
        "kernel",
        "batch_size",
        "device_index",
        "steps",
        "charges",
        "launches",
        "output_specs",
        "stack_buffers",
        "frozen_nbytes",
        "_operands",
    )

    def __init__(
        self,
        kernel: Any,
        batch_size: int,
        device_index: int,
        steps: List[Tuple],
        charges: List[Tuple],
        operands: List[BatchedOperand],
        launches: List[LaunchRecord],
        output_specs: Tuple[Tuple[bool, Tuple[int, ...]], ...],
        stack_buffers: Optional[Dict[int, np.ndarray]],
    ) -> None:
        self.kernel = kernel
        self.batch_size = batch_size
        self.device_index = device_index
        self.steps = steps
        self.charges = charges
        #: reusable operand descriptors, mutated in place per launch (an
        #: entry serves one launch at a time; the kernel consumes operands
        #: synchronously, so nothing retains them across launches)
        self._operands = operands
        self.launches = launches
        self.output_specs = output_specs
        self.stack_buffers = stack_buffers
        buffer_bytes = (
            sum(float(b.nbytes) for b in stack_buffers.values())
            if stack_buffers
            else 0.0
        )
        # reported frozen-state footprint: the real buffers plus a flat
        # per-record estimate for the step/charge/launch/output tuples
        self.frozen_nbytes = buffer_bytes + 112.0 * (
            len(steps) + len(charges) + len(launches) + len(output_specs)
        )

    # -- construction ----------------------------------------------------------
    @classmethod
    def build(
        cls,
        plan: BatchPlan,
        kernel: Any,
        resolved: List[BatchedOperand],
        outputs: List[BatchedOutput],
        launches: List[LaunchRecord],
        options: Any,
    ) -> Optional["SpecializedEntry"]:
        """Freeze the state of one completed oracle launch, or return None
        when the layout cannot be specialized (the slot is then marked
        terminally unsupported and the fingerprint stays on the generic
        path).

        Must run after ``execute_batched`` and *before* ``planner.commit``
        (which releases ``plan.batch``).
        """
        nodes = plan.batch.nodes
        batch_size = len(nodes)
        dev = plan.device
        steps: List[Tuple] = []
        charges: List[Tuple] = []
        operands: List[BatchedOperand] = []
        stack_buffers: Dict[int, np.ndarray] = {}

        for pos, op in enumerate(plan.operands):
            kind = op.kind
            i = op.index
            first = nodes[0].args[i]
            if kind is OperandKind.SHARED:
                if type(first) is not np.ndarray:
                    # lazily produced or non-array "shared" values have no
                    # stable identity to pin across rounds
                    return None
                steps.append((_SHARED, i, first))
                operands.append(resolved[pos])  # frozen, reused every launch
            elif kind is OperandKind.CONTIGUOUS or kind is OperandKind.PEER:
                if batch_size == 1:
                    if isinstance(first, LazyTensor):
                        storage = first.storage
                        if storage.arena.device_index != dev:
                            # remote singleton: the generic path reclassifies
                            # and charges it at resolve time — keep it there
                            return None
                        arr = storage.array
                        steps.append((_SINGLE_LAZY, pos, i, arr.shape, arr.dtype))
                        operands.append(BatchedOperand(shared=False))
                    else:
                        if type(first) is not np.ndarray:
                            return None
                        steps.append(
                            (_SINGLE_HOST, pos, i, [first], first.shape, first.dtype)
                        )
                        operands.append(
                            BatchedOperand(shared=False, array=first[None])
                        )
                else:
                    storage = first.storage
                    arena = storage.arena
                    is_b = arena.broadcast
                    item_shape = arena.data.shape if is_b else arena.data.shape[1:]
                    steps.append(
                        (_SLICE, pos, i, is_b, item_shape, arena.data.dtype)
                    )
                    operands.append(BatchedOperand(shared=False))
                    if kind is OperandKind.PEER:
                        nbytes = (
                            arena.nbytes
                            if is_b
                            else float(storage.nbytes) * batch_size
                        )
                        charges.append((_PEER_CHARGE, arena.device_index, nbytes))
            else:  # GATHER / FUSED_GATHER: freeze the scattered layout
                lazy_idx: List[int] = []
                host_idx: List[int] = []
                refs: List[Optional[np.ndarray]] = [None] * batch_size
                parts: List[Any] = [None] * batch_size
                remote: Dict[int, float] = {}
                seen_broadcast: set = set()
                gather_bytes = 0.0
                item_shape: Optional[Tuple[int, ...]] = None
                item_dtype = None
                for b, node in enumerate(nodes):
                    arg = node.args[i]
                    if isinstance(arg, LazyTensor):
                        storage = arg.storage
                        arena = storage.arena
                        src = arena.device_index
                        lazy_idx.append(b)
                        if src != dev:
                            if arena.broadcast:
                                # broadcast parts share one underlying array:
                                # the arena ships once per consumer device
                                if arena.arena_id not in seen_broadcast:
                                    seen_broadcast.add(arena.arena_id)
                                    remote[src] = (
                                        remote.get(src, 0.0) + arena.nbytes
                                    )
                            else:
                                remote[src] = remote.get(src, 0.0) + float(
                                    storage.nbytes
                                )
                        gather_bytes += float(storage.nbytes)
                        arr = storage.array
                    else:
                        if type(arg) is not np.ndarray:
                            return None
                        host_idx.append(b)
                        refs[b] = arg
                        parts[b] = arg
                        gather_bytes += float(arg.nbytes)
                        arr = arg
                    if item_shape is None:
                        item_shape = arr.shape
                        item_dtype = arr.dtype
                    elif arr.shape != item_shape or arr.dtype != item_dtype:
                        # ragged/mixed parts cannot freeze a stack layout
                        return None
                if not host_idx:
                    steps.append((_SCATTER_LAZY, pos, i, item_shape, item_dtype))
                else:
                    steps.append(
                        (
                            _SCATTER_MIXED,
                            pos,
                            i,
                            tuple(lazy_idx),
                            tuple(host_idx),
                            refs,
                            item_shape,
                            item_dtype,
                        )
                    )
                explicit = kind is OperandKind.GATHER
                operands.append(
                    BatchedOperand(shared=False, parts=parts, scattered=not explicit)
                )
                for src in sorted(remote):
                    charges.append((_PEER_CHARGE, src, remote[src]))
                if explicit:
                    charges.append((_GATHER_CHARGE, 0, gather_bytes))
                if i in kernel.reusable_inputs and item_shape is not None:
                    stack_buffers[i] = np.empty(
                        (batch_size,) + item_shape, dtype=item_dtype
                    )

        output_specs = tuple((out.batched, out.array.shape) for out in outputs)
        return cls(
            kernel=kernel,
            batch_size=batch_size,
            device_index=dev,
            steps=steps,
            charges=charges,
            operands=operands,
            launches=list(launches),
            output_specs=output_specs,
            stack_buffers=stack_buffers or None,
        )

    # -- per-launch resolution -------------------------------------------------
    def try_resolve(
        self, plan: BatchPlan, device: Any, options: Any
    ) -> Optional[List[BatchedOperand]]:
        """Resolve a plan through the frozen layout, or None when an
        invariant no longer holds (the caller demotes and falls back).

        Invariants verify strictly before the frozen peer/gather charges,
        so a failed launch leaves the device simulator untouched and the
        generic fallback re-charges from zero (see the module docstring for
        the ``ensure_resident`` caveat).
        """
        try:
            if not self._verify_and_bind(plan, device, options):
                return None
        except Exception:
            # anything structurally surprising (missing storage, host value
            # where a tensor was frozen) demotes rather than crashes
            return None
        charges = self.charges
        if charges:
            dev = plan.device
            local = device.device_for(dev)
            for code, src, nbytes in charges:
                if code == _PEER_CHARGE:
                    device.peer_transfer(src, dev, nbytes)
                else:
                    local.gather(nbytes)
        return self._operands

    def _verify_and_bind(self, plan: BatchPlan, device: Any, options: Any) -> bool:
        """One pass over the frozen steps: run the cheap invariant checks
        and bind this round's arrays/parts into the reusable operands."""
        nodes = plan.batch.nodes
        dev = plan.device
        local = None  # fetched lazily: steady-state launches never need it
        batch_size = self.batch_size
        operands = self._operands
        plan_ops = plan.operands
        for step in self.steps:
            code = step[0]
            if code == _SCATTER_LAZY:
                _, pos, i, item_shape, dtype = step
                parts = operands[pos].parts
                b = 0
                for node in nodes:
                    parts[b] = node.args[i].storage
                    b += 1
                arena = parts[0].arena
                data = arena.data
                shape = data.shape if arena.broadcast else data.shape[1:]
                if shape != item_shape or data.dtype != dtype:
                    return False
            elif code == _SLICE:
                _, pos, i, is_b, item_shape, dtype = step
                op = plan_ops[pos]
                storage = nodes[0].args[i].storage
                arena = storage.arena
                if arena.arena_id != op.arena_id or storage.offset != op.start:
                    return False
                data = arena.data
                shape = data.shape if is_b else data.shape[1:]
                if shape != item_shape or data.dtype != dtype:
                    return False
                operands[pos].array = arena.slice(op.start, batch_size)
            elif code == _SCATTER_MIXED:
                _, pos, i, lazy_idx, host_idx, refs, item_shape, dtype = step
                parts = operands[pos].parts
                for b in lazy_idx:
                    parts[b] = nodes[b].args[i].storage
                if lazy_idx:
                    arena = parts[lazy_idx[0]].arena
                    data = arena.data
                    shape = data.shape if arena.broadcast else data.shape[1:]
                    if shape != item_shape or data.dtype != dtype:
                        return False
                for b in host_idx:
                    arg = nodes[b].args[i]
                    if arg is refs[b]:
                        continue  # frozen part: validated + resident already
                    if (
                        type(arg) is not np.ndarray
                        or arg.shape != item_shape
                        or arg.dtype != dtype
                    ):
                        return False
                    if local is None:
                        local = device.device_for(dev)
                    local.ensure_resident(arg, options.batch_memcpy)
                    refs[b] = arg  # re-freeze: fast again next round
                    parts[b] = arg
            elif code == _SHARED:
                if nodes[0].args[step[1]] is not step[2]:
                    return False
                # the frozen array is kept alive by this entry, so it stays
                # device-resident — no per-launch residency bookkeeping
            elif code == _SINGLE_LAZY:
                _, pos, i, shape, dtype = step
                arg = nodes[0].args[i]
                if type(arg) is not LazyTensor:
                    return False
                storage = arg.storage
                if storage is None or storage.arena.device_index != dev:
                    return False
                arr = storage.array
                if arr.shape != shape or arr.dtype != dtype:
                    return False
                operands[pos].array = arr[None]
            else:  # _SINGLE_HOST
                _, pos, i, refs, shape, dtype = step
                arg = nodes[0].args[i]
                if arg is not refs[0]:
                    if (
                        type(arg) is not np.ndarray
                        or arg.shape != shape
                        or arg.dtype != dtype
                    ):
                        return False
                    if local is None:
                        local = device.device_for(dev)
                    local.ensure_resident(arg, options.batch_memcpy)
                    refs[0] = arg
                    operands[pos].array = arg[None]
        return True

    # -- execution / commit ----------------------------------------------------
    def execute(self, operands: List[BatchedOperand]) -> List[BatchedOutput]:
        """Run the block program over resolved operands: no accounting
        (:attr:`launches` are replayed), gathers stacked into the buffers."""
        outputs, _ = self.kernel.run_program(
            operands, self.batch_size, self.stack_buffers, account=False
        )
        return outputs

    def crosscheck(
        self,
        kernel: Any,
        operands: List[BatchedOperand],
        outputs: List[BatchedOutput],
        launches: List[LaunchRecord],
    ) -> None:
        """Re-run the NumPy oracle on the same operands and fail loudly on
        any divergence (opt-in full cross-check mode)."""
        ref_outputs, ref_launches = kernel.execute_batched(operands, self.batch_size)
        if len(ref_outputs) != len(outputs):
            raise RuntimeError(
                f"specialized launch of block {kernel.name} produced "
                f"{len(outputs)} outputs, oracle produced {len(ref_outputs)}"
            )
        for k, (got, ref) in enumerate(zip(outputs, ref_outputs)):
            if got.batched != ref.batched or not np.array_equal(got.array, ref.array):
                raise RuntimeError(
                    f"specialized launch of block {kernel.name} diverged from "
                    f"the NumPy oracle on output {k}"
                )
        if len(launches) != len(ref_launches):
            raise RuntimeError(
                f"specialized launch of block {kernel.name} replayed "
                f"{len(launches)} launch records, oracle produced "
                f"{len(ref_launches)}"
            )
        for got_rec, ref_rec in zip(launches, ref_launches):
            if (
                got_rec.kernel_name != ref_rec.kernel_name
                or got_rec.batch_size != ref_rec.batch_size
                or got_rec.flops != ref_rec.flops
                or got_rec.bytes_read != ref_rec.bytes_read
                or got_rec.bytes_written != ref_rec.bytes_written
                or got_rec.scattered_bytes != ref_rec.scattered_bytes
            ):
                raise RuntimeError(
                    f"specialized launch of block {kernel.name} replayed a "
                    f"launch record diverging from the oracle "
                    f"({got_rec} != {ref_rec})"
                )

    def commit(
        self, plan: BatchPlan, outputs: List[BatchedOutput], device: Any
    ) -> None:
        """Commit outputs under the planned arena ids using the frozen
        output templates (mirrors ``MemoryPlanner.commit``)."""
        nodes = plan.batch.nodes
        tp_devices = plan.batch.tp_devices
        local = device.device_for(plan.device)
        for k, (out, arena_id) in enumerate(zip(outputs, plan.output_arena_ids)):
            batched, shape = self.output_specs[k]
            arr = out.array
            if arr.shape != shape:
                raise RuntimeError(
                    f"specialized commit: output {k} produced shape "
                    f"{arr.shape}, frozen template expected {shape}"
                )
            if batched:
                arena = StorageArena.from_batched(
                    arr, arena_id=arena_id, device_index=plan.device
                )
            else:
                arena = StorageArena.from_broadcast(
                    arr, len(nodes), arena_id=arena_id, device_index=plan.device
                )
            # mirror MemoryPlanner.commit: tensor-parallel outputs are
            # partial-output arenas assembled from the members' shards
            arena.partial_shards = tp_devices
            local.note_arena(arena)
            for b, node in enumerate(nodes):
                node.outputs[k].storage = TensorStorage(arena, b)
        for node in nodes:
            node.executed = True
        plan.batch = None
