"""Arena-backed batched tensor storage.

Every batched kernel launch writes each of its outputs into one contiguous
device buffer — a :class:`StorageArena` — with instance ``b`` of the batch at
offset ``b``.  Tensors produced by the launch are *views* into that arena,
never copies — a :class:`~repro.runtime.tensor.LazyTensor` carries its
``(arena, offset)`` reference itself: a later batch whose operands sit at
consecutive offsets of a single arena can hand the arena slice straight to
the next kernel, which is what makes ACROBAT's gather elision (§5.2) real
rather than an accounting fiction, and operands scattered over arenas are
read by one index gather per source arena
(:func:`~repro.kernels.batched.index_gather`).

Two arena layouts exist:

* **batched** — ``data`` has a leading batch dimension; ``view(b)`` is the
  zero-copy row ``data[b]``.
* **broadcast** — a shared (non-batched) launch output replicated logically
  across the batch; every ``view(b)`` is the *same* underlying array and
  ``slice`` returns a zero-copy ``np.broadcast_to`` view.

Arena identity (``arena_id``) is the unit of the memory planner's contiguity
reasoning and of the device simulator's residency cache: arena buffers are
born on-device, so reading them back into another kernel never costs a
transfer.
"""

from __future__ import annotations

import itertools
from typing import Tuple

import numpy as np

_arena_ids = itertools.count()


def next_arena_id() -> int:
    """Allocate a fresh arena identifier (the planner reserves ids ahead of
    execution so plans can name arenas that do not exist yet)."""
    return next(_arena_ids)


class StorageArena:
    """One contiguous device buffer holding a batched launch output."""

    # __weakref__ lets the device's residency cache hold arenas weakly
    __slots__ = (
        "arena_id",
        "data",
        "batch_size",
        "broadcast",
        "device_index",
        "__weakref__",
    )

    def __init__(
        self,
        data: np.ndarray,
        batch_size: int,
        broadcast: bool = False,
        arena_id: int = None,
        device_index: int = 0,
    ) -> None:
        self.arena_id = next_arena_id() if arena_id is None else arena_id
        self.data = np.asarray(data)
        self.batch_size = batch_size
        self.broadcast = broadcast
        #: which device of the group owns this buffer; the memory planner
        #: classifies operands read from another device's arena as priced
        #: peer transfers
        self.device_index = device_index

    # -- construction ---------------------------------------------------------
    @classmethod
    def from_batched(
        cls, array: np.ndarray, arena_id: int = None, device_index: int = 0
    ) -> "StorageArena":
        """Wrap a ``[B, ...]`` array produced by a batched kernel launch."""
        array = np.asarray(array)
        return cls(
            array,
            batch_size=array.shape[0],
            arena_id=arena_id,
            device_index=device_index,
        )

    @classmethod
    def from_broadcast(
        cls,
        array: np.ndarray,
        batch_size: int,
        arena_id: int = None,
        device_index: int = 0,
    ) -> "StorageArena":
        """Wrap a shared launch output logically replicated across the batch."""
        return cls(
            np.asarray(array),
            batch_size,
            broadcast=True,
            arena_id=arena_id,
            device_index=device_index,
        )

    # -- zero-copy access -----------------------------------------------------
    def view(self, offset: int) -> np.ndarray:
        """Instance ``offset``'s tensor: a view, never a copy."""
        if self.broadcast:
            return self.data
        return self.data[offset]

    def slice(self, start: int, length: int) -> np.ndarray:
        """``length`` consecutive instances starting at ``start`` as one
        batched ``[length, ...]`` view (no copy)."""
        if self.broadcast:
            return np.broadcast_to(self.data, (length,) + self.data.shape)
        return self.data[start : start + length]

    # -- introspection --------------------------------------------------------
    @property
    def nbytes(self) -> float:
        """Bytes of unique device storage backing this arena."""
        return float(self.data.nbytes)

    @property
    def instance_shape(self) -> Tuple[int, ...]:
        """Shape of one instance's tensor."""
        return self.data.shape if self.broadcast else self.data.shape[1:]

    @property
    def instance_nbytes(self) -> float:
        """Bytes of one instance's tensor (computed without realizing a
        view; every instance of a broadcast arena is the whole array)."""
        data = self.data
        if self.broadcast or not data.shape[0]:
            return float(data.nbytes)
        return float(data.nbytes // data.shape[0])

    def __repr__(self) -> str:
        kind = "broadcast" if self.broadcast else "batched"
        return (
            f"StorageArena(#{self.arena_id}, {kind}, batch={self.batch_size}, "
            f"shape={self.data.shape})"
        )
