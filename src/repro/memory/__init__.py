"""Memory layer: arena-backed batched tensor storage and the memory planner.

Batched kernel launches write each output into one contiguous
:class:`StorageArena`; tensors are zero-copy views into arenas (a lazy
tensor carries its ``(arena, offset)`` reference itself).  Between scheduling and execution the
:class:`MemoryPlanner` classifies every batch operand as contiguous-reuse
(free), explicit-gather or fused-gather and emits per-batch
:class:`BatchPlan`\\ s the executor and batched kernels consume.  This
package is the single authority on storage contiguity.
"""

from .arena import StorageArena, next_arena_id
from .planner import BatchPlan, MemoryPlanner, OperandKind, OperandPlan

__all__ = [
    "StorageArena",
    "next_arena_id",
    "MemoryPlanner",
    "BatchPlan",
    "OperandPlan",
    "OperandKind",
]
