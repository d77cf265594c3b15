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
Whatever is a function of the block structure is decided once, when the
kernel is built (:meth:`BlockKernel._compile_program`), and written down as
one straight-line Python function, ``kernel.launch(operands, batch_size,
buffers=None) -> (outputs, launches)``, whose source is ``kernel.source``.
It keeps one local per value and

* reads each shared input off its operand, and inlines the three forms of a
  varying one — a ready array (batch dimension checked), an
  :func:`index_gather` of its segments, or its host parts as one
  ``np.array`` (``np.stack`` into ``buffers[i]`` when a caller passes one;
  only inputs in :attr:`BlockKernel.reusable_inputs` ever read it; the
  runtime never passes one, and :mod:`repro.specialize` is the only
  caller that does);
* looks its launch records up, right after the operands are read, in a
  per-kernel cache keyed by the batch size, every input's shape and dtype,
  and which varying inputs arrive scattered;
* calls each op body bound at construction — ``opdef.batched`` when an
  argument carries the batch dimension, else ``opdef.compute`` — with its
  attributes as literals, already shifted for the batch dimension; a
  batched ``concat`` broadcasts its shared operands, a batched ``reshape``
  prepends the batch size and a batched ``take_row`` is an index;
* releases each value at its last use: after every op line a ``del`` drops
  the values that line read last (gathered inputs included, returned
  outputs never), newest first, so a launch holds its working set, not
  every intermediate it has made;
* on a record-cache miss keeps each op result's ``(shape, dtype)`` as it is
  made — never the value — and evaluates the FLOP and byte rules of every
  fusion group over those (:meth:`BlockKernel._derive_costs`, fixed +
  per-instance), then publishes the complete tuple: kernels are shared by
  every engine of a compiled model, across threads.

Op bodies are captured when the kernel is built, so a wrapper installed on
``opdef.compute`` / ``opdef.batched`` afterwards is not seen by it.  Every
launch (:meth:`BlockKernel.execute_batched`) runs this one function.
"""

from __future__ import annotations

import keyword
import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .block import StaticBlock
from .fusion import KernelGroup, fuse_block, fused_kernel_name
from .registry import get_op

#: operators whose result may be a NumPy *view* of an argument (escape
#: analysis for the reusable gather buffers)
_VIEW_OPS = frozenset({"reshape", "transpose", "take_row"})

#: launch-record cache entries one kernel keeps before starting over
_MAX_RECORD_CLASSES = 512


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


def _literal(value: Any) -> Optional[str]:
    """Source text that evaluates to an object equal to ``value`` and of its
    type, or None when there is none (the value is then bound by name)."""
    kind = type(value)
    if value is None or kind in (bool, int, str):
        return repr(value)
    if kind is float:
        return repr(value) if math.isfinite(value) else None
    if kind in (list, tuple):
        items = [_literal(item) for item in value]
        if None in items:
            return None
        if kind is list:
            return "[" + ", ".join(items) + "]"
        return "(" + ", ".join(items) + ("," if len(items) == 1 else "") + ")"
    return None


class _LaunchSource:
    """The lines of one generated ``launch`` function and the names it reads
    besides its arguments."""

    def __init__(self) -> None:
        self.lines: List[str] = []
        self.namespace: Dict[str, Any] = {
            "asarray": np.asarray,
            "array": np.array,
            "stack": np.stack,
            "broadcast_to": np.broadcast_to,
            "index_gather": index_gather,
            "BatchedOutput": BatchedOutput,
        }
        #: id of a bound object -> its name (an op body used twice is bound once)
        self._bound: Dict[int, str] = {}

    def emit(self, line: str, indent: int = 1) -> None:
        self.lines.append("    " * indent + line)

    def bind(self, hint: str, value: Any) -> str:
        """A name the function reads ``value`` under."""
        name = self._bound.get(id(value))
        if name is not None:
            return name
        base = "".join(c if c.isalnum() or c == "_" else "_" for c in hint)
        name, n = base, 1
        while name in self.namespace:
            n += 1
            name = f"{base}_{n}"
        self.namespace[name] = value
        self._bound[id(value)] = name
        return name

    def keywords(self, attrs: Dict[str, Any], hint: str) -> List[str]:
        """``attrs`` as keyword arguments: literals where they exist."""
        if not all(k.isidentifier() and not keyword.iskeyword(k) for k in attrs):
            return ["**" + self.bind(hint, attrs)]
        out = []
        for key, value in attrs.items():
            text = _literal(value)
            out.append(f"{key}={text if text is not None else self.bind(f'{hint}_{key}', value)}")
        return out


class BlockKernel:
    """Executable batched form of one static block."""

    def __init__(self, block: StaticBlock, enable_fusion: bool = True) -> None:
        self.block = block
        self.groups: List[KernelGroup] = fuse_block(block, enable_fusion)
        self.group_names = [fused_kernel_name(block, g) for g in self.groups]
        #: (batch size, per input: shape, dtype and — varying inputs — the
        #: ``scattered`` flag) -> that launch's records (:meth:`_derive_records`)
        self._records: Dict[tuple, Tuple[LaunchRecord, ...]] = {}
        self._compile_program()

    def _compile_program(self) -> None:
        """Generate the block's launch function: everything decided here is a
        function of the block structure alone, so no launch repeats it.

        Every value has a slot — inputs first, then one per op, then the
        constants — and a name in the generated code: ``v<slot>`` for inputs
        and op results, ``c<slot>`` for constants.  A value's batchedness
        follows from ``BlockInput.shared`` alone.
        """
        block = self.block
        n_inputs = len(block.inputs)
        group_of_op = {j: g.group_id for g in self.groups for j in g.op_indices}
        consumers = block.consumers()
        output_ops = {ref for kind, ref in block.outputs if kind == "op"}

        src = _LaunchSource()
        src.namespace["bad_operand"] = self._bad_operand
        src.namespace["cached_records"] = self._records.get
        src.namespace["derive_records"] = self._derive_records
        names = [f"v{slot}" for slot in range(n_inputs + len(block.ops))]
        n_values = len(names)
        batched = [not inp.shared for inp in block.inputs] + [False] * len(block.ops)
        # inputs a value may be a NumPy view of (escape analysis, below)
        may_view = [frozenset((i,)) for i in range(n_inputs)] + [frozenset()] * len(block.ops)
        #: (slot of a constant, (shape, dtype)) for every constant operand
        const_meta: List[Tuple[int, Tuple[Tuple[int, ...], np.dtype]]] = []
        #: per op line, in launch order: (launch comment or None, result
        #: slot, the line, the value slots it reads)
        steps: List[Tuple[Optional[str], int, str, Tuple[int, ...]]] = []
        group_specs: List[_GroupSpec] = []
        for group in self.groups:
            comment: Optional[str] = f"# launch {group.group_id}: {self.group_names[group.group_id]}"
            reads: List[int] = []
            flop_rules = []
            for j in group.op_indices:
                bop = block.ops[j]
                opdef = get_op(bop.op_name)
                srcs: List[int] = []
                for kind, ref in bop.args:
                    if kind == "const":
                        value = np.asarray(ref)
                        const_meta.append((len(names), (value.shape, value.dtype)))
                        srcs.append(len(names))
                        names.append(src.bind(f"c{len(names)}", value))
                        batched.append(False)
                        may_view.append(frozenset())
                        continue
                    slot = ref if kind == "input" else n_inputs + ref
                    srcs.append(slot)
                    external = kind == "input" or group_of_op[ref] != group.group_id
                    if external and slot not in reads:
                        reads.append(slot)
                any_batched = any(batched[s] for s in srcs)
                out = n_inputs + j
                batched[out] = any_batched
                if bop.op_name in _VIEW_OPS:
                    may_view[out] = frozenset().union(*(may_view[s] for s in srcs))
                call = self._op_call(
                    src, bop, opdef, [names[s] for s in srcs], [batched[s] for s in srcs]
                )
                used = tuple(dict.fromkeys(s for s in srcs if s < n_values))
                steps.append((comment, out, f"{names[out]} = {call}", used))
                comment = None
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

        self._batched = tuple(batched)
        self._varying = self._batched[:n_inputs]
        self._group_specs = group_specs
        self._const_meta = tuple(const_meta)
        output_slots = [ref if kind == "input" else n_inputs + ref for kind, ref in block.outputs]
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

        # Liveness: the key reads every input (position 0); op line k reads
        # its arguments (position 2k + 1) and its record-cache miss capture
        # reads its result (2k + 2).  A value the launch does not return is
        # dropped right after its last read.
        last_read: Dict[int, int] = {inp.index: 0 for inp in block.inputs}
        for k, (_, out, _, used) in enumerate(steps):
            for slot in used:
                last_read[slot] = 2 * k + 1
            last_read[out] = 2 * k + 2
        #: order the launch assigns values in: inputs, then op results
        birth = {inp.index: n for n, inp in enumerate(block.inputs)}
        birth.update((out, n_inputs + k) for k, (_, out, _, _) in enumerate(steps))
        dying: Dict[int, List[int]] = {}
        for slot, at in last_read.items():
            if slot not in output_slots:
                dying.setdefault(at, []).append(slot)

        def release(at: int) -> None:
            # newest first, as a stack unwinds
            slots = sorted(dying.get(at, ()), key=birth.__getitem__, reverse=True)
            if slots:
                src.emit("del " + ", ".join(names[slot] for slot in slots))

        src.emit("def launch(operands, batch_size, buffers=None):", indent=0)
        for inp in block.inputs:
            self._emit_input(src, inp.index, names[inp.index], inp.name)
        src.emit("key = (")
        src.emit("batch_size,", indent=2)
        key_at, at = [], 1
        for inp in block.inputs:
            v = names[inp.index]
            flag = "" if inp.shared else f" o{inp.index}.scattered,"
            src.emit(f"{v}.shape, {v}.dtype,{flag}", indent=2)
            key_at.append((inp.index, at))
            at += 2 if inp.shared else 3
        #: per input: its slot and where its shape, dtype and — varying
        #: inputs — scattered flag sit in the record-cache key
        self._key_at = tuple(key_at)
        src.emit(")")
        release(0)
        src.emit("launches = cached_records(key)")
        # a miss keeps each value's (shape, dtype) as it is made, never the
        # value itself
        src.emit("meta = None if launches is not None else {}")
        for k, (comment, out, line, _) in enumerate(steps):
            if comment is not None:
                src.emit(comment)
            src.emit(line)
            release(2 * k + 1)
            src.emit("if meta is not None:")
            src.emit(f"meta[{out}] = {names[out]}.shape, {names[out]}.dtype", 2)
            release(2 * k + 2)
        src.emit("if meta is not None:")
        src.emit("launches = derive_records(key, meta)", 2)
        outputs = ", ".join(
            f"BatchedOutput({names[slot]}, {batched[slot]}, batch_size)" for slot in output_slots
        )
        src.emit(f"return [{outputs}], launches")
        #: Python source of :attr:`launch`
        self.source = "\n".join(src.lines) + "\n"
        exec(compile(self.source, f"<kernel {block.name}>", "exec"), src.namespace)
        #: ``launch(operands, batch_size, buffers=None) -> (outputs, launches)``
        self.launch: Callable[..., Tuple[List[BatchedOutput], Tuple[LaunchRecord, ...]]] = (
            src.namespace["launch"]
        )

    def _emit_input(self, src: _LaunchSource, i: int, v: str, name: str) -> None:
        """Read block input ``i`` into the local ``v``."""
        if not self._varying[i]:
            src.emit(f"{v} = asarray(operands[{i}].array)  # {name}")
            return
        # only an input no output can alias may be gathered into a buffer
        reusable = i in self.reusable_inputs
        buffer = f"None if buffers is None else buffers.get({i})" if reusable else "None"
        o = f"o{i}"
        src.emit(f"{o} = operands[{i}]  # {name}")
        src.emit(f"{v} = {o}.array")
        src.emit(f"if {v} is not None:")
        src.emit(f"{v} = asarray({v})", 2)
        src.emit(f"if {v}.shape[0] != batch_size:", 2)
        src.emit(f"bad_operand({i}, {o}, batch_size)", 3)
        # a gathered form is read by the kernel: an explicit gather launch
        # the planner already charged, or scattered bytes on the records
        src.emit(f"elif {o}.segments is not None:")
        src.emit(f"if {o}.num_instances() != batch_size:", 2)
        src.emit(f"bad_operand({i}, {o}, batch_size)", 3)
        src.emit(f"{v} = index_gather({o}.segments, {buffer})", 2)
        src.emit(f"elif len({o}.parts) != batch_size:")
        src.emit(f"bad_operand({i}, {o}, batch_size)", 2)
        if not reusable:
            src.emit("else:")
            src.emit(f"{v} = array({o}.parts)", 2)
            return
        src.emit(f"elif buffers is None or buffers.get({i}) is None:")
        src.emit(f"{v} = array({o}.parts)", 2)
        src.emit("else:")
        src.emit(f"{v} = stack({o}.parts, out=buffers[{i}])", 2)

    @staticmethod
    def _op_call(
        src: _LaunchSource, bop, opdef, args: List[str], src_batched: List[bool]
    ) -> str:
        """The expression applying ``bop`` to the locals ``args``."""
        any_batched = any(src_batched)
        attrs = _adjust_attrs(bop.op_name, bop.attrs, any_batched)
        hint = f"{bop.op_name}_{bop.index}"
        if any_batched and bop.op_name == "take_row":
            return f"{args[0]}[:, {int(attrs['index'])}]"
        newshape = []
        if any_batched and bop.op_name == "concat":
            # concatenation requires every operand to carry the batch
            # dimension; shared operands broadcast across the batch
            args = [
                a if b else f"broadcast_to({a}, (batch_size,) + {a}.shape)"
                for a, b in zip(args, src_batched)
            ]
        elif any_batched and bop.op_name == "reshape":
            # the launch prepends its batch size to the new shape
            attrs = dict(attrs)
            tail = list(attrs.pop("newshape"))
            text = _literal(tail)
            if text is None:
                text = f"[batch_size] + {src.bind(hint + '_newshape', tail)}"
            else:
                text = "[" + ", ".join(["batch_size"] + ([text[1:-1]] if tail else [])) + "]"
            newshape = [f"newshape={text}"]
        keywords = src.keywords(attrs, hint) + newshape
        body = opdef.compute
        if any_batched and opdef.batched is not None:
            body = opdef.batched
        suffix = "" if body is opdef.compute else "_batched"
        fn = src.bind(f"op_{bop.op_name}{suffix}", body)
        call = f"{fn}({', '.join(args + keywords)})"
        # a shared-only op may return a NumPy scalar; batched values are arrays
        return call if any_batched else f"asarray({call})"

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
            raise self._size_error(inp.index, f"{len(arrs)} values", batch_size)
        return BatchedOperand.batched(np.stack(arrs, axis=0))

    def _size_error(self, index: int, got: str, batch_size: int) -> ValueError:
        return ValueError(
            f"block {self.block.name}: varying input {self.block.inputs[index].name} "
            f"got {got} for batch size {batch_size}"
        )

    def _bad_operand(self, index: int, operand: BatchedOperand, batch_size: int) -> None:
        """Raise for varying input ``index``, whose size is not ``batch_size``
        (called by the generated launch)."""
        if operand.array is not None:
            got = f"batch dimension {np.asarray(operand.array).shape[0]}"
        else:
            got = f"{operand.num_instances()} values"
        raise self._size_error(index, got, batch_size)

    # -- execution ------------------------------------------------------------
    def execute_batched(
        self,
        args: Sequence[Any],
        batch_size: int,
    ) -> Tuple[List[BatchedOutput], Tuple[LaunchRecord, ...]]:
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
        for arg in args:
            if not isinstance(arg, BatchedOperand):
                args = [
                    self._normalize_operand(inp, args[inp.index], batch_size)
                    for inp in self.block.inputs
                ]
                break
        return self.launch(args, batch_size)

    def _derive_records(
        self, key: tuple, meta: Dict[int, Tuple[Tuple[int, ...], np.dtype]]
    ) -> Tuple[LaunchRecord, ...]:
        """The launch records of a record-cache miss, cached under ``key``
        once complete.  ``meta`` holds the ``(shape, dtype)`` of every op
        result the launch made; the inputs' come from ``key``, the
        constants' from the block.  Threads that miss on one key together
        each derive and store equal records, so the cache needs no lock: a
        reader sees no entry or a finished one."""
        batch_size = key[0]
        scattered = []
        for slot, at in self._key_at:
            meta[slot] = key[at], key[at + 1]
            if self._varying[slot] and key[at + 2]:
                scattered.append(slot)
        meta.update(self._const_meta)
        launches = []
        for name, flops, bytes_read, bytes_written, gathered in self._derive_costs(meta):
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
        records = tuple(launches)
        if len(self._records) >= _MAX_RECORD_CLASSES:
            self._records.clear()
        self._records[key] = records
        return records

    def _derive_costs(self, meta: Dict[int, Tuple[Tuple[int, ...], np.dtype]]) -> List[tuple]:
        """Evaluate the accounting rules for one operand-shape class.

        FLOPs come from the per-instance argument shapes, bytes from the
        values a group reads from outside itself and the results that leave
        it — all functions of the block inputs' per-instance shapes and
        dtypes, read off ``meta`` (every slot's ``(shape, dtype)``).  Each
        record field is stored as ``(fixed, per_instance)``: batched values
        scale with the batch size, shared ones do not.  The last element
        lists the varying inputs a group reads, whose bytes count as
        ``scattered_bytes`` on a launch that receives them scattered.
        """
        batched = self._batched
        n_inputs = len(self._varying)

        def shape_of(slot: int) -> Tuple[int, ...]:
            shape = meta[slot][0]
            return shape[1:] if batched[slot] else shape

        def nbytes_of(slot: int) -> float:
            return float(math.prod(shape_of(slot)) * meta[slot][1].itemsize)

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
