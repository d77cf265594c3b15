"""Lazy tensors and DFG nodes.

The AOT-compiled program does not compute tensor values eagerly: each block
invocation appends a :class:`DFGNode` to the runtime's pending graph and
returns :class:`LazyTensor` handles for its outputs (§2.2, §3).  Values are
filled in when the runtime triggers batched execution.

A materialized tensor does not own its array: it is a zero-copy *view* into
a :class:`~repro.memory.arena.StorageArena` — the contiguous device buffer
holding all outputs of its batched launch, with instance ``b`` at offset
``b``.  The tensor *is* its storage reference: ``arena`` and ``offset`` are
two slots on the :class:`LazyTensor` itself, stored by the planner's commit.
The memory planner (:mod:`repro.memory.planner`) reasons about those
(arena, offset) placements to decide when a later batch's operands are
already contiguous in device memory (gather elision, §5.2).

An executed node drops its ``outputs`` list (commit clears it; nothing reads
it afterwards), which removes the only back edge of the graph —
``DFGNode.outputs -> LazyTensor.node`` — so a finished round is freed by
reference counting alone, never by the cyclic collector.  ``LazyTensor.node``
stays: scheduler signatures key on it.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Any, List, Optional, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..memory.arena import StorageArena

_tensor_ids = itertools.count()
_node_ids = itertools.count()


class LazyTensor:
    """Handle to a tensor that will be produced by a pending DFG node."""

    __slots__ = (
        "tid",
        "node",
        "output_index",
        "arena",
        "offset",
        "inferred_shape",
    )

    def __init__(self, node: "DFGNode", output_index: int) -> None:
        self.tid = next(_tensor_ids)
        self.node = node
        self.output_index = output_index
        #: where the value lives once executed: instance ``offset`` of a
        #: storage arena (``arena`` is None until the node has executed)
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
        raises if the node has not executed yet."""
        arena = self.arena
        if arena is None:
            raise RuntimeError(
                f"LazyTensor {self.tid} (node {self.node.node_id}, block "
                f"{self.node.block_id}) read before execution was triggered"
            )
        return arena.view(self.offset)

    def __repr__(self) -> str:
        state = "ready" if self.is_materialized else "pending"
        return f"LazyTensor(#{self.tid}, {state})"


class DFGNode:
    """One pending block invocation in the dataflow graph."""

    __slots__ = (
        "node_id",
        "block_id",
        "args",
        "depth",
        "phase",
        "instance_id",
        "outputs",
        "executed",
        "round_seq",
    )

    def __init__(
        self,
        block_id: int,
        args: Sequence[Any],
        depth: int,
        phase: int,
        instance_id: int,
        num_outputs: int,
        round_seq: Optional[int] = None,
    ) -> None:
        self.node_id = next(_node_ids)
        self.block_id = block_id
        #: one entry per block input: an ``ndarray`` (parameter/constant/host
        #: input) or a :class:`LazyTensor` produced by an earlier node.  The
        #: generated program passes a tuple, which is kept as is
        self.args: Tuple[Any, ...] = args if type(args) is tuple else tuple(args)
        self.depth = depth
        self.phase = phase
        self.instance_id = instance_id
        #: the node's lazy outputs until it executes; cleared by the
        #: planner's commit (see the module docstring)
        self.outputs: Tuple[LazyTensor, ...] = tuple([LazyTensor(self, k) for k in range(num_outputs)])
        self.executed = False
        #: position within the node's synchronization round (passed by the
        #: runtime at invoke time); the memory planner's plan cache uses it
        #: as the canonical in-round producer reference.  Defaults to the
        #: globally unique node id so directly constructed nodes can never
        #: alias in a cache signature.
        self.round_seq = self.node_id if round_seq is None else round_seq

    def producer_nodes(self) -> List["DFGNode"]:
        """DFG nodes whose outputs this node consumes."""
        return [a.node for a in self.args if isinstance(a, LazyTensor)]

    def __repr__(self) -> str:
        return (
            f"DFGNode(#{self.node_id}, block={self.block_id}, depth={self.depth}, "
            f"phase={self.phase}, inst={self.instance_id})"
        )


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
