"""Fiber runtime for tensor-dependent control flow (§4.2).

When a model's control flow depends on intermediate tensor values, the
unbatched program for each instance cannot simply run to completion before
the DFGs execute — it must stop at every point where it reads a tensor value
back.  The paper runs every instance on its own *fiber* so that all instances
progress to their next synchronization point, the pending DFG nodes execute
as one batch, and the fibers resume.

Here fibers are Python generator coroutines produced by the AOT code
generator.  The protocol between generated code and this scheduler:

* ``yield FiberYield.SYNC``      — the fiber needs pending DFG nodes executed
  before it can continue (it is about to read a tensor value).
* ``yield ("join", [handles])``  — fork-join: the fiber blocks until the
  spawned child fibers (created with :meth:`FiberScheduler.spawn`) finish;
  their return values are delivered as the value of the ``yield``.
* ``return value``               — the fiber finished.

**The step order is a contract.**  The order in which fibers are stepped is
the order their ``invoke`` calls reach the runtime: a node's ``round_seq``,
and with it bucket order and instance order inside every launch.  It is:

* a *pass* steps the fibers runnable at its start, in creation order;
* the next pass is the parents whose joins resolved during this one, sorted
  by creation index, followed by the fibers this pass spawned;
* when a pass leaves nothing runnable the DFG is triggered, and the fibers
  waiting at a sync point resume sorted by creation index.

The scheduler does work per *event* (a step, a spawn, a child finishing, a
trigger), never per live fiber per pass: the current pass's runnable list, a
sync-wait list, and a countdown per blocked join that the joined handles
decrement as their fibers finish.  ``tests/test_fiber_schedule.py`` keeps the
pass-scanning scheduler this replaced as the oracle for the order.
"""

from __future__ import annotations

import itertools
from enum import Enum
from operator import attrgetter
from typing import Any, Callable, Generator, List, Optional, Sequence

_fiber_ids = itertools.count()


class FiberYield(Enum):
    """Yield kinds understood by the scheduler (besides join tuples)."""

    SYNC = "sync"


class FiberHandle:
    """Handle to a spawned fiber; carries its result once finished."""

    __slots__ = ("fiber_id", "finished", "result", "_joiners")

    def __init__(self) -> None:
        self.fiber_id = next(_fiber_ids)
        self.finished = False
        self.result: Any = None
        #: fibers blocked in a join that names this handle (once per mention)
        self._joiners: Optional[List["_Fiber"]] = None

    def __repr__(self) -> str:
        return f"FiberHandle(#{self.fiber_id}, finished={self.finished})"


class _Fiber:
    __slots__ = ("index", "handle", "gen", "send_value", "joined", "unfinished")

    def __init__(self, index: int, handle: FiberHandle, gen: Generator) -> None:
        #: creation index within the scheduler: the step order's sort key
        self.index = index
        self.handle = handle
        self.gen = gen
        #: value to send into the generator on next resume
        self.send_value: Any = None
        #: the handles of the join the fiber is blocked in, and how many of
        #: them have yet to finish
        self.joined: Optional[List[FiberHandle]] = None
        self.unfinished = 0


_by_index = attrgetter("index")


class FiberScheduler:
    """Cooperatively schedules instance fibers around DFG flush points."""

    def __init__(self, trigger: Callable[[], None]) -> None:
        #: callback that schedules + executes all pending DFG nodes
        self._trigger = trigger
        #: fibers created and not yet stepped, in creation order
        self._spawned: List[_Fiber] = []
        self.num_sync_rounds = 0
        self.num_spawned = 0

    # -- API used by generated code ------------------------------------------
    def spawn(self, gen: Generator) -> FiberHandle:
        """Register a new child fiber (a concurrent recursive call); it takes
        its first step in the pass after the one that spawned it."""
        handle = FiberHandle()
        self._spawned.append(_Fiber(self.num_spawned, handle, gen))
        self.num_spawned += 1
        return handle

    # -- driver ----------------------------------------------------------------
    def run(self, roots: Sequence[Generator]) -> List[Any]:
        """Run ``roots`` (one generator per batch instance) to completion,
        triggering DFG execution whenever every live fiber is blocked on a
        sync point.  Returns the root results in order."""
        root_handles = [self.spawn(g) for g in roots]
        try:
            self._run_passes()
        finally:
            # a finished (or failed) run keeps no fiber, handle or generator
            self._spawned = []
        return [h.result for h in root_handles]

    def _run_passes(self) -> None:
        runnable, self._spawned = self._spawned, []
        live = len(runnable)
        #: fibers at a sync point, in the order they reached it
        waiting: List[_Fiber] = []
        while live:
            if not runnable:
                # every live fiber waits on a sync point: flush the DFG
                if not waiting:
                    raise RuntimeError(
                        "fiber deadlock: no runnable fibers and none waiting on sync"
                    )
                self._trigger()
                self.num_sync_rounds += 1
                waiting.sort(key=_by_index)
                runnable, waiting = waiting, []
            #: parents whose join resolved during this pass
            resumed: List[_Fiber] = []
            for fiber in runnable:
                send, fiber.send_value = fiber.send_value, None
                try:
                    yielded = fiber.gen.send(send)
                except StopIteration as stop:
                    handle = fiber.handle
                    handle.finished = True
                    handle.result = stop.value
                    live -= 1
                    joiners, handle._joiners = handle._joiners, None
                    if joiners is not None:
                        for parent in joiners:
                            parent.unfinished -= 1
                            if not parent.unfinished:
                                self._resume_joined(parent, resumed)
                    continue
                if yielded is None or yielded is FiberYield.SYNC:
                    waiting.append(fiber)
                elif isinstance(yielded, tuple) and len(yielded) == 2 and yielded[0] == "join":
                    fiber.joined = handles = list(yielded[1])
                    for handle in handles:
                        if not handle.finished:
                            fiber.unfinished += 1
                            if handle._joiners is None:
                                handle._joiners = []
                            handle._joiners.append(fiber)
                    if not fiber.unfinished:
                        self._resume_joined(fiber, resumed)
                else:
                    raise RuntimeError(f"fiber yielded unknown value {yielded!r}")
            resumed.sort(key=_by_index)
            spawned, self._spawned = self._spawned, []
            live += len(spawned)
            runnable = resumed + spawned

    @staticmethod
    def _resume_joined(fiber: _Fiber, resumed: List[_Fiber]) -> None:
        fiber.send_value = [h.result for h in fiber.joined]
        fiber.joined = None
        resumed.append(fiber)


def run_sequential(roots: Sequence[Generator], trigger: Callable[[], None]) -> List[Any]:
    """Reference driver that runs instance generators one after another,
    triggering execution at every sync point (no batch parallelism across
    instances at tensor-dependent control flow).  This is what a system
    without fibers is forced to do (§4.2, Fig. 4 left)."""
    results: List[Any] = []
    for gen in roots:
        try:
            while True:
                yielded = next(gen)
                if isinstance(yielded, tuple) and yielded and yielded[0] == "join":
                    raise RuntimeError(
                        "run_sequential cannot execute programs with concurrent fibers"
                    )
                trigger()
        except StopIteration as stop:
            results.append(stop.value)
    return results
