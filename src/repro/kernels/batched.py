"""Batched execution of static blocks.

A :class:`BlockKernel` is the runtime form of one static block: its fusion
groups, its shared/varying input signature and the NumPy code that applies
the block to a whole batch of DFG nodes at once.

Execution semantics
-------------------
Given ``B`` DFG nodes for the same block at the same (phase, depth):

* *shared* inputs are model parameters/constants — one array, reused across
  the whole batch (parameter-reuse analysis, §5.1);
* *varying* inputs carry per-instance values with a leading batch dimension.
  The memory planner (:mod:`repro.memory`) decides how that batched form is
  obtained: a zero-copy arena view when the operands are already contiguous
  in device memory, an explicit gather launch, or a gather fused into the
  kernel (§5.2) — in which case the kernel itself gathers the scattered
  instances and reports them as ``scattered_bytes``;
* each fusion group becomes one (simulated) kernel launch and reports a
  :class:`LaunchRecord` so the device simulator can charge launch overhead,
  memory traffic and FLOPs.

Operand forms
-------------
Kernels consume :class:`BatchedOperand` descriptors; a varying operand
arrives in one of three forms, and a column of ``B`` instances is looked at
once per launch, never once per instance per layer:

``array`` — contiguous slice
    The ``[B, ...]`` value itself (a zero-copy arena view).  Nobody walks
    the column at launch time: the planner proved adjacency ahead of
    execution and resolution slices the arena.
``segments`` — index gather
    The instances live scattered over storage arenas.  The planner's
    resolve walks the column once into one ``(arena, positions, offsets)``
    segment per source arena, and :func:`index_gather` moves the rows with
    one ``take`` and one indexed assignment per segment — no per-instance
    views, no ``np.stack`` (§5.2's gather through an index array built per
    launch).  A gather's cost is its segment count, not its row count.
``parts`` — host parts
    Per-instance host arrays (model inputs never seen by the device),
    stacked by the kernel; also the fallback for the rare column mixing
    host arrays and arena tensors.

Raw arrays / lists are still accepted for direct use in tests and are
normalized on entry.  Numerical results always come from NumPy, and batched
execution is bitwise equal to the unbatched reference: elementwise bodies
are row-independent by construction, and ``dense`` is
:func:`~repro.kernels.registry.dense_rows` on both sides — a fixed row tile
per weight shape, so a step's ``B`` rows cost ``ceil(B / T)`` small GEMMs
instead of ``B`` GEMVs.  (The tile is read off the weight operand when the
step runs — block inputs carry no static shapes for the program to resolve
it from — and is a function of that shape alone.)

Block programs
--------------
Whatever is a function of the block structure is computed once, when the
kernel is built (:meth:`BlockKernel._compile_program`): a flat list of
slot-indexed steps with the NumPy callable chosen and the attributes already
shifted for the batch dimension, plus each fusion group's external reads and
escaping results.  What additionally depends on operand shapes — the FLOP
and byte counts of the launch records — is evaluated once per operand-shape
class and stored as ``fixed + per_instance * B``
(:meth:`BlockKernel._derive_costs`).  A launch gathers its inputs, runs the
steps, and reads the records back; the specialization tier runs the same
program with accounting off (:meth:`BlockKernel.run_program`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .block import StaticBlock
from .fusion import KernelGroup, fuse_block, fused_kernel_name
from .registry import get_op

#: operators whose result may be a NumPy *view* of an argument (escape
#: analysis for the reusable gather buffers)
_VIEW_OPS = frozenset({"reshape", "transpose", "take_row"})

#: operand-shape classes one kernel memoizes costs for before starting over
_MAX_COST_CLASSES = 64


@dataclass
class LaunchRecord:
    """Cost-relevant facts about one batched kernel launch."""

    kernel_name: str
    batch_size: int
    flops: float
    bytes_read: float
    bytes_written: float
    #: bytes of varying operands that were *not* contiguous in device memory;
    #: with gather fusion these are read through indirect addressing, without
    #: it they require a separate explicit gather launch (see the planner).
    scattered_bytes: float = 0.0
    is_gather: bool = False


#: one source arena of an index gather: rows ``positions`` of the batched
#: operand are instances ``offsets`` of ``arena`` (``positions`` is None when
#: the arena supplies every row, in order).  Arenas are duck-typed
#: (``data`` / ``broadcast`` / ``instance_shape``) — see
#: :class:`~repro.memory.arena.StorageArena`.
Segment = Tuple[Any, Optional[np.ndarray], np.ndarray]


class BatchedOperand:
    """One block input in the form the batched kernel consumes it.

    Exactly one of ``array`` / ``segments`` / ``parts`` is set (see the
    module docstring's *Operand forms*):

    * ``array`` — the ready batched value: for shared inputs the single
      parameter array, for varying inputs a ``[B, ...]`` array (a zero-copy
      arena view for contiguous operands);
    * ``segments`` — an index gather over the source arenas of a scattered
      column, performed by the kernel (:func:`index_gather`);
    * ``parts`` — per-instance host arrays the kernel stacks itself.

    For the two gathered forms ``scattered`` says who pays for the read: an
    explicit gather launch already charged by the planner
    (``scattered=False``), or a gather fused into the kernel
    (``scattered=True`` — accounted as scattered bytes on the launch
    records).
    """

    __slots__ = ("shared", "array", "segments", "parts", "scattered")

    def __init__(
        self,
        shared: bool,
        array: Optional[np.ndarray] = None,
        parts: Optional[List[np.ndarray]] = None,
        scattered: bool = False,
        segments: Optional[List[Segment]] = None,
    ) -> None:
        self.shared = shared
        self.array = array
        self.segments = segments
        self.parts = parts
        self.scattered = scattered

    @classmethod
    def shared_value(cls, array: np.ndarray) -> "BatchedOperand":
        return cls(shared=True, array=np.asarray(array))

    @classmethod
    def batched(cls, array: np.ndarray) -> "BatchedOperand":
        """A varying operand already contiguous in device memory."""
        return cls(shared=False, array=np.asarray(array))

    @classmethod
    def scattered_parts(cls, parts: Sequence[np.ndarray]) -> "BatchedOperand":
        """A varying operand of host parts whose gather is fused into the
        kernel."""
        return cls(shared=False, parts=[np.asarray(p) for p in parts], scattered=True)

    def num_instances(self) -> int:
        """Instances a gathered (``segments`` / ``parts``) operand names."""
        if self.segments is not None:
            return sum(len(offsets) for _, _, offsets in self.segments)
        return len(self.parts)


def index_gather(segments: Sequence[Segment], out: Optional[np.ndarray] = None) -> np.ndarray:
    """Gather a scattered column from its source arenas: the ``[B, ...]``
    array ``np.stack`` of the per-instance arena views would build, moved by
    one ``take`` + one indexed assignment per *segment*.

    Keeps the stack's failure modes: instance shapes that differ between
    arenas raise ``ValueError`` (never a silent broadcast), and differing
    dtypes promote (never a silent cast) — which is also why ``out`` is used
    only when it has exactly the gathered shape and dtype, and a fresh array
    is returned otherwise.
    """
    first = segments[0][0]
    shape = first.instance_shape
    dtype = first.data.dtype
    for arena, _, _ in segments[1:]:
        if arena.instance_shape != shape:
            raise ValueError("all input arrays must have the same shape")
        if arena.data.dtype != dtype:
            dtype = np.result_type(dtype, arena.data.dtype)
    rows = sum(len(offsets) for _, _, offsets in segments)
    full_shape = (rows,) + shape
    if out is None or out.shape != full_shape or out.dtype != dtype:
        arena, positions, offsets = segments[0]
        if positions is None and not arena.broadcast:
            return arena.data.take(offsets, axis=0)  # one arena, one take
        out = np.empty(full_shape, dtype)
    for arena, positions, offsets in segments:
        # a broadcast arena is one array standing for every instance
        rows_of = arena.data if arena.broadcast else arena.data.take(offsets, axis=0)
        if positions is None:
            out[...] = rows_of
        else:
            out[positions] = rows_of
    return out


class BatchedOutput:
    """One block output of a batched execution.

    ``array`` is the batched ``[B, ...]`` result when ``batched`` is true;
    otherwise it is a single shared (non-batched) array logically replicated
    across the batch.  Sequence access returns instance views either way, so
    ``outputs[k][b]`` is output ``k`` of instance ``b``.
    """

    __slots__ = ("array", "batched", "batch_size")

    def __init__(self, array: np.ndarray, batched: bool, batch_size: int) -> None:
        self.array = array
        self.batched = batched
        self.batch_size = batch_size

    def __len__(self) -> int:
        return self.batch_size

    def __getitem__(self, b: int) -> np.ndarray:
        return self.array[b] if self.batched else self.array

    def __iter__(self):
        return (self[b] for b in range(self.batch_size))


@dataclass
class _GroupSpec:
    """The static cost structure of one fusion group of a block program."""

    kernel_name: str
    #: per op of the group: (estimate_flops, attrs, source slots, batched?)
    flop_rules: List[Tuple[Any, Dict[str, Any], Tuple[int, ...], bool]]
    #: slots the group reads from outside itself, in first-read order
    reads: Tuple[int, ...]
    #: slots of ops whose result leaves the group
    writes: Tuple[int, ...]


def _adjust_attrs(op_name: str, attrs: Dict[str, Any], batched: bool) -> Dict[str, Any]:
    """Shift axis-like attributes when a leading batch dimension is present."""
    if not batched:
        return attrs
    out = dict(attrs)
    if op_name in ("concat", "softmax", "argmax", "sum", "mean"):
        axis = out.get("axis", -1)
        if isinstance(axis, int) and axis >= 0:
            out["axis"] = axis + 1
    elif op_name == "transpose":
        out["axes"] = [0] + [a + 1 for a in out["axes"]]
    return out


def _batched_take_row(index: int):
    """The batched ``take_row`` fast path (row ``index`` of every instance)."""

    def take(x: np.ndarray) -> np.ndarray:
        return x[:, index]

    return take


class BlockKernel:
    """Executable batched form of one static block."""

    def __init__(
        self,
        block: StaticBlock,
        enable_fusion: bool = True,
        enable_horizontal_fusion: bool = True,
    ) -> None:
        self.block = block
        self.groups: List[KernelGroup] = fuse_block(
            block, enable_standard=enable_fusion, enable_horizontal=enable_horizontal_fusion
        )
        self.group_names = [fused_kernel_name(block, g) for g in self.groups]
        self._compile_program()
        #: operand-shape class -> per-group cost coefficients (see
        #: :meth:`_derive_costs`); keyed without the batch size
        self._cost_table: Dict[tuple, List[tuple]] = {}

    def _compile_program(self) -> None:
        """Flatten the block into its launch program: everything derived here
        is a function of the block structure alone, so no launch repeats it.

        Values live in a slot list — inputs first, then one slot per op, then
        the constants (prefilled in :attr:`_slots`).  A value's batchedness
        follows from ``BlockInput.shared`` alone.
        """
        block = self.block
        n_inputs = len(block.inputs)
        group_of_op = {j: g.group_id for g in self.groups for j in g.op_indices}
        consumers = block.consumers()
        output_ops = {ref for kind, ref in block.outputs if kind == "op"}

        slots: List[Any] = [None] * (n_inputs + len(block.ops))
        batched = [not inp.shared for inp in block.inputs] + [False] * len(block.ops)
        # inputs a value may be a NumPy view of (escape analysis, below)
        may_view = [frozenset((i,)) for i in range(n_inputs)] + [frozenset()] * len(block.ops)
        steps: List[tuple] = []
        group_specs: List[_GroupSpec] = []
        for group in self.groups:
            reads: List[int] = []
            flop_rules = []
            for j in group.op_indices:
                bop = block.ops[j]
                opdef = get_op(bop.op_name)
                srcs: List[int] = []
                for kind, ref in bop.args:
                    if kind == "const":
                        srcs.append(len(slots))
                        slots.append(np.asarray(ref))
                        batched.append(False)
                        may_view.append(frozenset())
                        continue
                    slot = ref if kind == "input" else n_inputs + ref
                    srcs.append(slot)
                    external = kind == "input" or group_of_op[ref] != group.group_id
                    if external and slot not in reads:
                        reads.append(slot)
                src_batched = [batched[s] for s in srcs]
                any_batched = any(src_batched)
                attrs = _adjust_attrs(bop.op_name, bop.attrs, any_batched)
                broadcast: Optional[Tuple[bool, ...]] = None
                reshape_tail: Optional[List[int]] = None
                fn = opdef.batched if (any_batched and opdef.batched is not None) else opdef.compute
                if any_batched and bop.op_name == "concat":
                    # concatenation requires every operand to carry the batch
                    # dimension; shared operands broadcast across the batch
                    broadcast = tuple(not b for b in src_batched)
                elif any_batched and bop.op_name == "reshape":
                    # the launch prepends its batch size to the new shape
                    reshape_tail = list(attrs["newshape"])
                elif any_batched and bop.op_name == "take_row":
                    fn, attrs = _batched_take_row(int(attrs["index"])), {}
                out = n_inputs + j
                batched[out] = any_batched
                if bop.op_name in _VIEW_OPS:
                    may_view[out] = frozenset().union(*(may_view[s] for s in srcs))
                steps.append((out, fn, tuple(srcs), attrs, broadcast, reshape_tail))
                flop_rules.append((opdef.estimate_flops, bop.attrs, tuple(srcs), any_batched))
            writes = tuple(
                n_inputs + j
                for j in group.op_indices
                if j in output_ops
                or any(group_of_op[c] != group.group_id for c in consumers[j])
            )
            group_specs.append(
                _GroupSpec(self.group_names[group.group_id], flop_rules, tuple(reads), writes)
            )

        self._slots = slots
        self._batched = tuple(batched)
        self._varying = self._batched[:n_inputs]
        self._steps = tuple(steps)
        self._group_specs = group_specs
        output_slots = [ref if kind == "input" else n_inputs + ref for kind, ref in block.outputs]
        self._output_specs = tuple((slot, batched[slot]) for slot in output_slots)
        #: varying inputs whose gather buffer is safe to reuse across
        #: launches: no block output can be a NumPy view of them (a value
        #: "may view" the inputs reachable through unbroken chains of
        #: ``reshape``/``transpose``/``take_row``; every other op allocates).
        #: An output aliasing a reused buffer would be corrupted by the next
        #: launch.
        escaped = frozenset().union(*(may_view[slot] for slot in output_slots))
        self.reusable_inputs = frozenset(
            inp.index
            for inp in block.inputs
            if not inp.shared and inp.index not in escaped
        )

    # -- introspection -------------------------------------------------------
    @property
    def name(self) -> str:
        return self.block.name

    @property
    def num_launches(self) -> int:
        """Kernel launches per batched execution of this block."""
        return len(self.groups)

    def kernel_names(self) -> List[str]:
        return list(self.group_names)

    # -- operand normalization -------------------------------------------------
    def _normalize_operand(self, inp, arg: Any, batch_size: int) -> BatchedOperand:
        """Accept raw arrays (shared) / lists of arrays (varying) alongside
        planner-produced :class:`BatchedOperand` descriptors."""
        if isinstance(arg, BatchedOperand):
            return arg
        if inp.shared:
            return BatchedOperand.shared_value(arg)
        arrs = [np.asarray(a) for a in arg]
        if len(arrs) != batch_size:
            raise ValueError(
                f"block {self.block.name}: varying input {inp.name} got "
                f"{len(arrs)} values for batch size {batch_size}"
            )
        return BatchedOperand.batched(np.stack(arrs, axis=0))

    # -- execution ------------------------------------------------------------
    def execute_batched(
        self,
        args: Sequence[Any],
        batch_size: int,
    ) -> Tuple[List[BatchedOutput], List[LaunchRecord]]:
        """Run the block for a whole batch.

        Parameters
        ----------
        args:
            One entry per block input: a :class:`BatchedOperand` (the memory
            planner's resolved form), or — for direct callers — a single
            ``ndarray`` for shared inputs / a list of ``batch_size`` arrays
            for varying inputs.
        batch_size:
            Number of DFG nodes batched together.

        Returns
        -------
        (outputs, launches):
            ``outputs[k]`` is a :class:`BatchedOutput` (``outputs[k][b]`` is
            output ``k`` of instance ``b``); ``launches`` are the
            per-fusion-group cost records.
        """
        operands = [
            self._normalize_operand(inp, args[inp.index], batch_size)
            for inp in self.block.inputs
        ]
        return self.run_program(operands, batch_size)

    def run_program(
        self,
        operands: Sequence[BatchedOperand],
        batch_size: int,
        stack_buffers: Optional[Dict[int, np.ndarray]] = None,
        account: bool = True,
    ) -> Tuple[List[BatchedOutput], Optional[List[LaunchRecord]]]:
        """Gather the inputs, run the block program, emit the launch records.

        ``stack_buffers`` optionally maps input index -> preallocated
        ``[B, ...]`` buffer for the kernel-side gather (only ever passed for
        inputs in :attr:`reusable_inputs`).  With ``account`` off no records
        are produced (``launches`` is None): a specialization entry replays
        the records frozen from the launch that promoted it.
        """
        vals = self._slots.copy()
        scattered: List[int] = []
        for i, varying in enumerate(self._varying):
            op = operands[i]
            arr = op.array
            if not varying:
                vals[i] = np.asarray(arr)
                continue
            if arr is not None:
                arr = np.asarray(arr)
                if arr.shape[0] != batch_size:
                    raise ValueError(
                        f"block {self.block.name}: varying input "
                        f"{self.block.inputs[i].name} got batch dimension "
                        f"{arr.shape[0]} for batch size {batch_size}"
                    )
            else:
                # the kernel performs the gather (this read is device work —
                # an explicit gather launch already charged by the planner,
                # or scattered bytes accounted on this kernel's launch
                # records)
                if op.num_instances() != batch_size:
                    raise ValueError(
                        f"block {self.block.name}: varying input "
                        f"{self.block.inputs[i].name} got {op.num_instances()} "
                        f"values for batch size {batch_size}"
                    )
                buffer = stack_buffers.get(i) if stack_buffers else None
                if op.segments is not None:
                    arr = index_gather(op.segments, buffer)
                else:
                    arr = np.stack(op.parts, axis=0, out=buffer)
            if op.scattered:
                scattered.append(i)
            vals[i] = arr

        for out, fn, srcs, attrs, broadcast, reshape_tail in self._steps:
            args = [vals[s] for s in srcs]
            if broadcast is not None:
                args = [
                    np.broadcast_to(a, (batch_size,) + a.shape) if bcast else a
                    for a, bcast in zip(args, broadcast)
                ]
            elif reshape_tail is not None:
                attrs = dict(attrs, newshape=[batch_size] + reshape_tail)
            vals[out] = np.asarray(fn(*args, **attrs))

        outputs = [
            BatchedOutput(vals[slot], batched, batch_size)
            for slot, batched in self._output_specs
        ]
        if not account:
            return outputs, None

        shape_class = tuple(
            [
                (a.shape[1:] if varying else a.shape, a.dtype)
                for a, varying in zip(vals, self._varying)
            ]
        )
        costs = self._cost_table.get(shape_class)
        if costs is None:
            if len(self._cost_table) >= _MAX_COST_CLASSES:
                self._cost_table.clear()
            costs = self._cost_table[shape_class] = self._derive_costs(vals)
        launches = []
        for name, flops, bytes_read, bytes_written, gathered in costs:
            scattered_bytes = 0.0
            if scattered:
                for i, nbytes in gathered:
                    if i in scattered:
                        scattered_bytes += nbytes * batch_size
            launches.append(
                LaunchRecord(
                    kernel_name=name,
                    batch_size=batch_size,
                    flops=flops[0] + flops[1] * batch_size,
                    bytes_read=bytes_read[0] + bytes_read[1] * batch_size,
                    bytes_written=bytes_written[0] + bytes_written[1] * batch_size,
                    scattered_bytes=scattered_bytes,
                )
            )
        return outputs, launches

    def _derive_costs(self, vals: List[Any]) -> List[tuple]:
        """Evaluate the accounting rules for one operand-shape class.

        FLOPs come from the per-instance argument shapes, bytes from the
        values a group reads from outside itself and the results that leave
        it — all functions of the block inputs' per-instance shapes and
        dtypes.  Each record field is stored as ``(fixed, per_instance)``:
        batched values scale with the batch size, shared ones do not.  The
        last element lists the varying inputs a group reads, whose bytes
        count as ``scattered_bytes`` on a launch that receives them
        scattered.
        """
        batched = self._batched
        n_inputs = len(self._varying)

        def shape_of(slot: int) -> Tuple[int, ...]:
            shape = vals[slot].shape
            return shape[1:] if batched[slot] else shape

        def nbytes_of(slot: int) -> float:
            return float(math.prod(shape_of(slot)) * vals[slot].dtype.itemsize)

        costs = []
        for spec in self._group_specs:
            # [fixed, per instance], indexed by the value's batchedness
            flops, bytes_read, bytes_written = [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]
            gathered = []
            for estimate_flops, attrs, srcs, any_batched in spec.flop_rules:
                flops[any_batched] += estimate_flops([shape_of(s) for s in srcs], attrs)
            for slot in spec.reads:
                bytes_read[batched[slot]] += nbytes_of(slot)
                if slot < n_inputs and batched[slot]:
                    gathered.append((slot, nbytes_of(slot)))
            for slot in spec.writes:
                bytes_written[batched[slot]] += nbytes_of(slot)
            costs.append(
                (spec.kernel_name, tuple(flops), tuple(bytes_read), tuple(bytes_written), gathered)
            )
        return costs

    def execute_single(self, args: Sequence[np.ndarray]) -> List[np.ndarray]:
        """Unbatched reference execution of the block for one instance."""
        values: Dict[Tuple[str, int], np.ndarray] = {}
        for inp in self.block.inputs:
            values[("input", inp.index)] = np.asarray(args[inp.index])
        for bop in self.block.ops:
            opdef = get_op(bop.op_name)
            arrays = []
            for kind, ref in bop.args:
                arrays.append(np.asarray(ref) if kind == "const" else values[(kind, ref)])
            values[("op", bop.index)] = np.asarray(opdef.compute(*arrays, **bop.attrs))
        return [values[(kind, ref)] for kind, ref in self.block.outputs]
