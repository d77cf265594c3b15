"""The fiber scheduler's step order is a contract (see ``runtime/fibers.py``).

The pass-scanning scheduler that ``FiberScheduler`` replaced lives on here as
the oracle: random scripts of fibers that sync, spawn, join and return must be
stepped in exactly the same order by both, because the order fibers run in is
the order their ``invoke`` calls reach the runtime.
"""

import gc
from dataclasses import dataclass
from typing import Any, Generator, List

import pytest
from hypothesis import given, settings, strategies as st

from repro.runtime.fibers import FiberHandle, FiberScheduler, FiberYield


# -- the oracle: every fiber rescanned on every pass ---------------------------
@dataclass
class _ScannedFiber:
    handle: FiberHandle
    gen: Generator
    #: None = runnable, "sync" = waiting for trigger, ("join", handles) = waiting
    blocked_on: Any = None
    send_value: Any = None


class PassScanningScheduler:
    """``FiberScheduler`` as it was before it became O(events)."""

    def __init__(self, trigger):
        self._trigger = trigger
        self._fibers: List[_ScannedFiber] = []
        self.num_sync_rounds = 0
        self.num_spawned = 0

    def spawn(self, gen):
        handle = FiberHandle()
        self._fibers.append(_ScannedFiber(handle=handle, gen=gen))
        self.num_spawned += 1
        return handle

    def run(self, roots):
        root_handles = [self.spawn(g) for g in roots]
        while True:
            progressed = self._advance_runnable()
            self._resolve_joins()
            if all(f.handle.finished for f in self._fibers):
                break
            if not progressed and not self._any_runnable():
                if not any(f.blocked_on == "sync" for f in self._fibers if not f.handle.finished):
                    raise RuntimeError(
                        "fiber deadlock: no runnable fibers and none waiting on sync"
                    )
                self._trigger()
                self.num_sync_rounds += 1
                for f in self._fibers:
                    if f.blocked_on == "sync":
                        f.blocked_on = None
        return [h.result for h in root_handles]

    def _any_runnable(self):
        return any(f.blocked_on is None and not f.handle.finished for f in self._fibers)

    def _advance_runnable(self):
        progressed = False
        while True:
            made_progress_this_round = False
            for fiber in list(self._fibers):
                if fiber.handle.finished or fiber.blocked_on is not None:
                    continue
                made_progress_this_round = True
                progressed = True
                self._step(fiber)
            if not made_progress_this_round:
                break
            self._resolve_joins()
        return progressed

    def _step(self, fiber):
        try:
            send = fiber.send_value
            fiber.send_value = None
            yielded = fiber.gen.send(send) if send is not None else next(fiber.gen)
        except StopIteration as stop:
            fiber.handle.finished = True
            fiber.handle.result = stop.value
            return
        if yielded is FiberYield.SYNC or yielded is None:
            fiber.blocked_on = "sync"
        elif isinstance(yielded, tuple) and len(yielded) == 2 and yielded[0] == "join":
            fiber.blocked_on = ("join", list(yielded[1]))
        else:
            raise RuntimeError(f"fiber yielded unknown value {yielded!r}")

    def _resolve_joins(self):
        for fiber in self._fibers:
            if fiber.handle.finished or not isinstance(fiber.blocked_on, tuple):
                continue
            _, handles = fiber.blocked_on
            if all(h.finished for h in handles):
                fiber.send_value = [h.result for h in handles]
                fiber.blocked_on = None


# -- scripted fibers -------------------------------------------------------------
# A script is a list of actions; a fiber runs its script and logs every step
# it is resumed for.  Handles a fiber spawns go into a pool every fiber of the
# run can join from, which is how a handle comes to be joined by two parents
# or joined long after its fiber finished.
actions = st.one_of(
    st.just(("sync",)),
    st.just(("sync_none",)),
    st.tuples(st.just("spawn"), st.integers(0, 3)),
    # join the most recent `n` handles of the shared pool (0: an empty join)
    st.tuples(st.just("join"), st.integers(0, 4)),
)


@st.composite
def scripts(draw, depth=0):
    """A fiber's script; spawned children get scripts of their own."""
    steps = []
    for action in draw(st.lists(actions, max_size=5)):
        if action[0] == "spawn" and depth < 2:
            children = [draw(scripts(depth=depth + 1)) for _ in range(action[1])]
            steps.append(("spawn", children))
        elif action[0] != "spawn":
            steps.append(action)
    return steps


def run_scripts(scheduler_cls, root_scripts):
    """Run one scripted batch: the ``(fiber index, event)`` steps with the
    triggers between them, the counters, and the results or the error."""
    log = []
    pool = []
    indices = iter(range(10**6))

    sched = scheduler_cls(lambda: log.append("trigger"))

    def fiber(script):
        return body(next(indices), script)  # numbered in creation order

    def body(me, script):
        total = me
        for action in script:
            log.append((me, action[0]))
            if action[0] == "sync":
                yield FiberYield.SYNC
            elif action[0] == "sync_none":
                yield
            elif action[0] == "spawn":
                pool.extend(sched.spawn(fiber(child)) for child in action[1])
            else:
                handles = pool[len(pool) - action[1]:] if action[1] else []
                results = yield ("join", handles)
                assert len(results) == len(handles)
                total += sum(results)
        log.append((me, "return"))
        return total

    try:
        outcome = sched.run([fiber(s) for s in root_scripts])
    except RuntimeError as err:
        # a child can find its own handle in the pool and join it
        outcome = str(err)
    return log, sched.num_sync_rounds, sched.num_spawned, outcome


@settings(max_examples=300, deadline=None)
@given(st.lists(scripts(), min_size=0, max_size=4))
def test_same_steps_as_the_pass_scanning_scheduler(root_scripts):
    assert run_scripts(FiberScheduler, root_scripts) == run_scripts(
        PassScanningScheduler, root_scripts
    )


def test_a_join_that_cannot_resolve_is_a_deadlock_under_both():
    def stuck():
        yield FiberYield.SYNC
        yield ("join", [FiberHandle()])  # nobody runs this handle's fiber

    def bystander():
        yield FiberYield.SYNC
        return 1

    message = "fiber deadlock: no runnable fibers and none waiting on sync"
    for cls in (PassScanningScheduler, FiberScheduler):
        with pytest.raises(RuntimeError) as caught:
            cls(lambda: None).run([stuck(), bystander()])
        assert str(caught.value) == message


def test_unknown_yield_raises_the_same_error():
    def bad():
        yield "nonsense"

    for cls in (PassScanningScheduler, FiberScheduler):
        with pytest.raises(RuntimeError, match="fiber yielded unknown value 'nonsense'"):
            cls(lambda: None).run([bad()])


def test_one_handle_joined_by_two_parents_and_after_it_finished():
    def run(scheduler_cls):
        sched = scheduler_cls(lambda: None)
        shared = []

        def child():
            yield FiberYield.SYNC
            return 7

        def first():
            shared.append(sched.spawn(child()))
            got = yield ("join", shared)
            return got

        def second():
            yield FiberYield.SYNC  # by now `first` has spawned the child
            got = yield ("join", shared + shared)
            yield FiberYield.SYNC
            late = yield ("join", shared)  # the child finished long ago
            return got + late

        return sched.run([first(), second()]), sched.num_sync_rounds

    assert run(FiberScheduler) == run(PassScanningScheduler) == ([[7], [7, 7, 7]], 2)


def test_a_finished_run_holds_no_fiber_handle_or_generator():
    gc.collect()
    sched = FiberScheduler(lambda: None)

    def child():
        yield FiberYield.SYNC
        return 1

    def parent():
        handles = [sched.spawn(child()) for _ in range(3)]
        return sum((yield ("join", handles)))

    assert sched.run([parent(), parent()]) == [3, 3]
    assert sched._spawned == []
    live = [
        obj
        for obj in gc.get_objects()
        if isinstance(obj, FiberHandle)
        or (isinstance(obj, Generator) and obj.gi_code.co_name in ("child", "parent"))
    ]
    assert live == []
