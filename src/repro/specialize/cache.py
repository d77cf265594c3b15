"""The shape-keyed specialization cache: promotion state machine + stats.

The cache sits *below* the plan cache and *above* the kernel registry:

``plan cache`` -> ``specialization cache`` -> ``kernel registry``

Fingerprints reuse the plan cache's round signatures: every cached plan
template carries one :class:`SpecSlot` per batch, so a fingerprint is
``(round signature, batch position)`` — which pins the block, the batch
size, the device and the operand layout, keyed for free on the plan-cache
hit path (no per-launch fingerprint computation exists).

Slot lifecycle::

            count >= threshold               shape check fails
    COLD ----------------------> PROMOTED ----------------------> DEMOTED
      |                              |                                ^
      +------------------------------+---- plan template evicted -----+

``COLD`` slots count launches; crossing the threshold freezes a
:class:`~repro.specialize.entry.SpecializedEntry` from that same launch's
oracle execution (the launch still runs generic — promotion never installs
a path that has not just executed).  ``PROMOTED`` slots replay the entry.
``DEMOTED`` is terminal: the fingerprint stays on the generic path with one
integer compare of overhead.  Every slotted launch is counted exactly once,
as a hit (it replayed an entry) or a miss (it ran generic).

Promotion work happens inline on whatever loop triggered the flush and
costs one walk over a single batch's operands.  ``max_entries`` stops *new*
promotions once reached; existing entries keep hitting.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from .entry import SpecializedEntry

# slot states
COLD = 0
PROMOTED = 1
DEMOTED = 2

#: sentinel returned by :meth:`SpecializationCache.poll` when this launch
#: should run the oracle path *and* freeze an entry from it
BUILD = object()


class SpecSlot:
    """Per-fingerprint specialization state, attached to one batch position
    of one cached plan template."""

    __slots__ = ("state", "count", "entry")

    def __init__(self) -> None:
        self.state = COLD
        self.count = 0
        self.entry: Optional[SpecializedEntry] = None


class SpecializationCache:
    """Owns every slot's promotion decisions and the tier's accounting."""

    def __init__(self) -> None:
        #: launches of one fingerprint before it promotes (the promoting
        #: launch itself still runs the generic oracle path)
        self.threshold = 3
        #: re-run the NumPy oracle after every specialized launch and fail
        #: on any divergence (debugging aid; tests set it)
        self.crosscheck = False
        #: stop promoting new fingerprints past this many live entries
        self.max_entries = 512
        #: dormant until a repeat-heavy caller arms it (serving sessions do,
        #: exactly as they arm the plan cache via ``expect_repeats``)
        self.armed = False
        # cumulative accounting (survives runtime.reset, like the plan cache)
        self.promotions = 0
        self.demotions = 0
        self.hits = 0
        self.misses = 0
        self.entries = 0
        self.frozen_bytes = 0.0

    # -- arming ----------------------------------------------------------------
    def arm(self) -> bool:
        """Arm the tier; idempotent.  Returns True when newly armed."""
        was = self.armed
        self.armed = True
        return not was

    # -- slot lifecycle --------------------------------------------------------
    def make_slot(self) -> SpecSlot:
        """A fresh slot for one batch position of a new plan template."""
        return SpecSlot()

    def poll(self, slot: SpecSlot, operands):
        """Per-launch decision for a slotted batch whose ``operands`` the
        planner just resolved: the slot's entry when they pass its shape
        check (a hit), the :data:`BUILD` sentinel (run generic, then
        freeze), or None (run generic).  A failed check demotes the slot;
        misses count launches that had a fingerprint but ran generic."""
        if slot.state == PROMOTED:
            entry = slot.entry
            if entry.try_resolve(operands):
                self.hits += 1
                return entry
            self.demote(slot)
        self.misses += 1
        if slot.state == COLD:
            slot.count += 1
            if slot.count >= self.threshold and self.entries < self.max_entries:
                return BUILD
        return None

    def build_and_install(
        self, slot: SpecSlot, kernel, batch_size, operands, outputs, launches
    ) -> SpecializedEntry:
        """Freeze an entry from a completed oracle launch and promote the
        slot."""
        entry = SpecializedEntry(kernel, batch_size, operands, outputs, launches)
        slot.state = PROMOTED
        slot.entry = entry
        self.promotions += 1
        self.entries += 1
        self.frozen_bytes += entry.frozen_nbytes
        return entry

    def demote(self, slot: SpecSlot) -> None:
        """The shape check failed: permanently return the fingerprint to
        the generic path and release its frozen state."""
        self.demotions += 1
        self._retire(slot)

    def release_slots(self, slots: Optional[Iterable[SpecSlot]]) -> None:
        """Retire an evicted plan template's slots (the planner calls this
        on LRU eviction so entry/byte accounting tracks live state, not
        garbage).  The slots become terminal, not cold: a plan instantiated
        from the template may still carry one, and an orphan that re-promoted
        would hold an entry nobody is left to release."""
        for slot in slots or ():
            self._retire(slot)

    def _retire(self, slot: SpecSlot) -> None:
        entry = slot.entry
        slot.state = DEMOTED
        slot.entry = None
        if entry is not None:
            self.entries -= 1
            self.frozen_bytes -= entry.frozen_nbytes

    # -- reporting -------------------------------------------------------------
    def stats_dict(self) -> Dict[str, float]:
        """The ``RunStats.specialize`` bucket."""
        return {
            "promotions": self.promotions,
            "demotions": self.demotions,
            "hits": self.hits,
            "misses": self.misses,
            "entries": self.entries,
            "frozen_bytes": self.frozen_bytes,
        }
