"""Lazy tensors and the pending graph's column store.

The AOT-compiled program does not compute tensor values eagerly: each block
invocation appends one *row* to the runtime's pending graph and returns
:class:`LazyTensor` handles for its outputs (§2.2, §3).  Values are filled in
when the runtime triggers batched execution.

The pending graph is a column store, not a list of node objects.  Every
invocation carries the ``(phase, depth)`` pair the compiled program computed
inline (§4.1), so the runtime files it straight into the :class:`Column` of
its ``(phase, depth, block)`` key: the argument tuple, the instance id and the
round sequence number (its position in the round's invoke order) each
append to one list.  A column *is* a bucket of the inline-depth schedule,
which therefore only sorts column keys.  The ordering contract every
scheduler relies on: **columns in first-appearance order,
rows in invoke order** — a column's rows are appended as they are invoked,
so its ``seqs`` are increasing, and a column is created by its first row.

A lazy tensor names its producer as ``(column, row, output_index)``: the
column, the row within it, and which of the block's outputs it is (a capped
flush or a withdrawal that moves pending rows points their outputs at the
new place).  That is the graph's producer edge; schedulers that analyse
dependencies at run time follow it through ``column.args[row]``.

A materialized tensor does not own its array: it is a zero-copy *view* into
a :class:`~repro.memory.arena.StorageArena` — the contiguous device buffer
holding all outputs of its batched launch, with instance ``b`` at offset
``b``.  The tensor *is* its storage reference: ``arena`` and ``offset`` are
two slots on the :class:`LazyTensor` itself, stored by the planner's commit.
The memory planner (:mod:`repro.memory.planner`) reasons about those
(arena, offset) placements to decide when a later batch's operands are
already contiguous in device memory (gather elision, §5.2).

``Column.outs`` — the rows' lazy outputs — is the graph's only back edge
(``Column.outs -> LazyTensor.column``).  A trigger drops ``outs`` of every
column it executed, so a finished round is freed by reference counting
alone, never by the cyclic collector; it drops ``args`` too, so a tensor
that outlives its round keeps its column alive but not, through the other
rows' arguments, the rest of the graph.
``LazyTensor.column`` stays: it is the tensor's identity as a producer.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, List, Optional, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..memory.arena import StorageArena


class Column:
    """The pending invocations of one ``(phase, depth, block)`` key.

    One row per invocation, in invoke order; the row lists are parallel
    (``outs`` holds ``num_outputs`` entries per row).  ``args`` and ``outs``
    are dropped once the column has executed (see the module docstring)."""

    __slots__ = (
        "block_id",
        "phase",
        "depth",
        "num_outputs",
        "args",
        "instances",
        "seqs",
        "outs",
    )

    def __init__(self, block_id: int, phase: int, depth: int, num_outputs: int) -> None:
        self.block_id = block_id
        self.phase = phase
        self.depth = depth
        self.num_outputs = num_outputs
        #: one argument sequence per row, as the caller passed it: an
        #: ``ndarray`` (parameter / constant / host input) or a
        #: :class:`LazyTensor` per block input
        self.args: Optional[List[Sequence[Any]]] = []
        #: the mini-batch instance each row belongs to
        self.instances: List[int] = []
        #: each row's round sequence number, increasing
        self.seqs: List[int] = []
        #: the rows' lazy outputs, flat: output ``k`` of row ``r`` at
        #: ``r * num_outputs + k`` (the tuple ``invoke`` returns for a
        #: multi-output block is not kept, so it dies when unpacked)
        self.outs: Optional[List["LazyTensor"]] = []

    def __repr__(self) -> str:
        return (
            f"Column(block={self.block_id}, phase={self.phase}, "
            f"depth={self.depth}, rows={len(self.seqs)})"
        )


class LazyTensor:
    """Handle to a tensor produced by row ``row`` of a pending column."""

    __slots__ = ("column", "row", "output_index", "arena", "offset", "inferred_shape")

    def __init__(self, column: Column, row: int, output_index: int) -> None:
        self.column = column
        self.row = row
        self.output_index = output_index
        #: where the value lives once executed: instance ``offset`` of a
        #: storage arena (``arena`` is None until the row has executed)
        self.arena: Optional["StorageArena"] = None
        self.offset = 0
        #: statically inferred shape (filled by the VM's lazy interpreter so
        #: that batching signatures can include operand shapes)
        self.inferred_shape: Optional[tuple] = None

    @property
    def is_materialized(self) -> bool:
        return self.arena is not None

    @property
    def value(self) -> np.ndarray:
        """The concrete array (a zero-copy view into the backing arena);
        raises if the producing row has not executed yet."""
        arena = self.arena
        if arena is None:
            raise RuntimeError(
                f"{self!r} (block {self.column.block_id}) read before "
                f"execution was triggered"
            )
        return arena.view(self.offset)

    def __repr__(self) -> str:
        state = "ready" if self.is_materialized else "pending"
        return f"LazyTensor(row {self.row}, output {self.output_index}, {state})"


def materialize_value(value: Any) -> Any:
    """Recursively replace :class:`LazyTensor` handles with their concrete
    arrays inside arbitrary result structures (ADT values, lists, tuples)."""
    from ..ir.adt import ADTValue

    if isinstance(value, LazyTensor):
        return value.value
    if isinstance(value, ADTValue):
        return ADTValue(value.constructor, [materialize_value(f) for f in value.fields])
    if isinstance(value, tuple):
        return tuple(materialize_value(v) for v in value)
    if isinstance(value, list):
        return [materialize_value(v) for v in value]
    return value
