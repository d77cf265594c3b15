"""What one promoted fingerprint freezes — and nothing the planner owns.

A :class:`SpecializedEntry` is built from one *oracle* launch
(``planner.resolve`` → ``kernel.execute_batched`` → ``planner.commit``) of a
batch whose plan-cache slot crossed the promotion threshold.  Operands still
come from :meth:`MemoryPlanner.resolve` and outputs still go through
:meth:`MemoryPlanner.commit` on every later launch, so device charges,
residency and arena bookkeeping exist once.  The entry keeps only:

* the **launch records** the oracle produced, replayed instead of being
  re-derived (they are a function of the block, the batch size, each
  operand's per-instance shape/dtype and which operands arrive scattered);
* **stack buffers**: preallocated ``[B, ...]`` arrays the kernel gathers
  scattered columns into, only for inputs the block program proved can never
  escape the block as a view (:attr:`BlockKernel.reusable_inputs`);
* the **operand and output shapes** of the promoting launch.  Every launch
  compares the operands in hand against them before the records or buffers
  are used (:meth:`try_resolve`); a mismatch demotes the fingerprint with
  nothing to undo — the operands are already the generic ones, so the
  launch simply finishes on ``execute_batched``.

The numerical path is the kernel's own generated launch function
(:attr:`BlockKernel.launch`, the one the generic path runs) with the buffers
passed and its records ignored, and :meth:`crosscheck` (opt-in,
``SpecializationCache.crosscheck``) re-runs it unbuffered through
``execute_batched`` on the same operands and compares outputs and launch
records.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..kernels.batched import BatchedOperand, BatchedOutput, LaunchRecord

#: frozen form of one operand: (scattered — None for a ready array, else the
#: gathered operand's ``scattered`` flag; shape of the array or of every
#: gathered instance; dtype)
OperandSpec = Tuple[Optional[bool], Tuple[int, ...], Any]


def _instance_specs(op: BatchedOperand) -> Iterator[Tuple[Tuple[int, ...], Any]]:
    """``(shape, dtype)`` of a gathered operand's instances: one per source
    arena of an index gather (an arena's instances share both), one per host
    part."""
    if op.segments is not None:
        for arena, _, _ in op.segments:
            yield arena.instance_shape, arena.data.dtype
    else:
        for part in op.parts:
            yield part.shape, part.dtype


class SpecializedEntry:
    """One promoted fingerprint's frozen launch records, buffers and shapes."""

    __slots__ = (
        "kernel",
        "batch_size",
        "operand_specs",
        "output_shapes",
        "launches",
        "stack_buffers",
        "frozen_nbytes",
    )

    def __init__(
        self,
        kernel: Any,
        batch_size: int,
        operands: Sequence[BatchedOperand],
        outputs: Sequence[BatchedOutput],
        launches: Sequence[LaunchRecord],
    ) -> None:
        """Freeze a completed oracle launch: the operands it resolved, the
        outputs and the launch records it produced."""
        self.kernel = kernel
        self.batch_size = batch_size
        self.launches = tuple(launches)
        self.output_shapes = tuple(out.array.shape for out in outputs)
        specs: List[OperandSpec] = []
        buffers: Dict[int, np.ndarray] = {}
        for i, op in enumerate(operands):
            if op.array is not None:
                specs.append((None, op.array.shape, op.array.dtype))
                continue
            shape, dtype = next(_instance_specs(op))
            specs.append((op.scattered, shape, dtype))
            if i in kernel.reusable_inputs:
                buffers[i] = np.empty((batch_size,) + shape, dtype=dtype)
        self.operand_specs = specs
        self.stack_buffers = buffers or None
        # reported footprint: the real buffers plus a flat per-record
        # estimate for the spec/launch/shape tuples
        self.frozen_nbytes = sum(float(b.nbytes) for b in buffers.values()) + 112.0 * (
            len(specs) + len(self.launches) + len(self.output_shapes)
        )

    def try_resolve(self, operands: List[BatchedOperand]) -> bool:
        """The always-on check: True when every operand has the frozen form
        (so the frozen records and buffers are exactly what the generic path
        would derive for them); on False the cache demotes the fingerprint.

        Every segment of an index gather and every host part is compared,
        not just the first: stacking host parts into a preallocated buffer
        would otherwise cast a stray dtype silently where the generic stack
        promotes, and an index gather would skip the buffer for a promoted
        operand the frozen records do not describe.
        """
        for op, (scattered, shape, dtype) in zip(operands, self.operand_specs):
            arr = op.array
            if arr is not None:
                if scattered is not None or arr.shape != shape or arr.dtype != dtype:
                    return False
            elif op.scattered is not scattered:
                return False
            elif any(spec != (shape, dtype) for spec in _instance_specs(op)):
                return False
        return True

    def execute(self, operands: List[BatchedOperand]) -> List[BatchedOutput]:
        """Run the block's launch over checked operands, gathers written into
        the buffers; its records are dropped (:attr:`launches` are
        replayed)."""
        return self.kernel.launch(operands, self.batch_size, self.stack_buffers)[0]

    def crosscheck(
        self, operands: List[BatchedOperand], outputs: List[BatchedOutput]
    ) -> None:
        """Re-run the NumPy oracle on the same operands and fail loudly on
        any divergence (opt-in full cross-check mode)."""
        name = self.kernel.name
        ref_outputs, ref_launches = self.kernel.execute_batched(operands, self.batch_size)
        if len(ref_outputs) != len(outputs):
            raise RuntimeError(
                f"specialized launch of block {name} produced {len(outputs)} "
                f"outputs, oracle produced {len(ref_outputs)}"
            )
        for k, (got, ref) in enumerate(zip(outputs, ref_outputs)):
            if got.batched != ref.batched or not np.array_equal(got.array, ref.array):
                raise RuntimeError(
                    f"specialized launch of block {name} diverged from the "
                    f"NumPy oracle on output {k}"
                )
        if self.launches != ref_launches:
            raise RuntimeError(
                f"specialized launch of block {name} replayed launch records "
                f"diverging from the oracle ({self.launches} != {ref_launches})"
            )

    def commit(self, outputs: List[BatchedOutput]) -> None:
        """Last gate before ``MemoryPlanner.commit`` stores ``outputs``: a
        launch that replayed the frozen records must have produced the
        frozen output shapes."""
        shapes = tuple(out.array.shape for out in outputs)
        if shapes != self.output_shapes:
            raise RuntimeError(
                f"specialized launch of block {self.kernel.name} produced "
                f"output shapes {shapes}, frozen entry expected "
                f"{self.output_shapes}"
            )
