"""Shape-keyed kernel specialization: a launch-record replay tier.

Not wired into the runtime: nothing under :mod:`repro` outside this package
imports it.  It stays only as the import target of the wall-clock
benchmark's tracer (``bench/trace.py``) and is deleted together with those
references.

For a ``(block, batch_size, operand-layout, device)`` fingerprint that
recurs past a promotion threshold, the tier replays the launch records
instead of re-deriving them and stacks gathered operands into preallocated
buffers (the ``buffers=`` hook of the generated ``BlockKernel.launch``).
See :mod:`repro.specialize.cache` for the promotion state machine and
:mod:`repro.specialize.entry` for the frozen per-fingerprint state.
"""

from .cache import (  # noqa: F401
    BUILD,
    COLD,
    DEMOTED,
    PROMOTED,
    SpecializationCache,
    SpecSlot,
)
from .entry import SpecializedEntry  # noqa: F401

__all__ = [
    "SpecializationCache",
    "SpecSlot",
    "SpecializedEntry",
    "BUILD",
    "COLD",
    "PROMOTED",
    "DEMOTED",
]
