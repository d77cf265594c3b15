"""Shape-keyed kernel specialization: a thin replay tier below the plan cache.

Steady-state serving replays a small set of recurring rounds.  The plan
cache stops re-*planning* them; for a ``(block, batch_size, operand-layout,
device)`` fingerprint that recurs past a promotion threshold this tier
additionally replays the launch records instead of re-deriving them and
stacks gathered operands into preallocated buffers.  Everything else — every
operand resolved, every device charge, every output committed — goes through
the memory planner exactly as on the generic path, which stays the
correctness oracle.  Measured end to end the tier moves no benchmark metric
(ROADMAP item 2); it is kept this small so it can go in one commit.

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
