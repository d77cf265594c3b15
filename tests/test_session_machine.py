"""A generative check of one :class:`~repro.serve.session.InferenceSession`.

A hypothesis state machine submits requests (some backdated, so the
``adaptive`` policy batches them as a backlog), cancels pending ones,
flushes and polls — under the ``adaptive`` policy (also on a two-device
group) and the ``size`` policy.  After every step it checks the session's
request bookkeeping against the runtime's pending column store, that an
adaptive round never holds more than ``max_batch`` requests, and every
resolved handle against the eager reference."""

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro import CompilerOptions, compile_model, reference_run
from repro.models import MODEL_MODULES
from repro.serve import AdaptivePolicy, RequestCancelled, SimulatedClock
from repro.utils import bitwise_equal

NUM_INSTANCES = 5

POLICIES = {
    "adaptive-cap2": ("adaptive", {"max_batch": 2, "max_wait_ms": 4.0}),
    "adaptive-cap3": ("adaptive", {"max_batch": 3, "max_wait_ms": 4.0}),
    "size": ("size", {"n": 3}),
    "adaptive-cap2-round_robin": (
        "adaptive",
        {"max_batch": 2, "max_wait_ms": 4.0, "device": 2, "placement": "round_robin"},
    ),
}


@pytest.fixture(scope="module")
def treelstm():
    module = MODEL_MODULES["treelstm"]
    mod, params, size = module.build_for("test")
    instances = module.make_batch(mod, size, NUM_INSTANCES, seed=17)
    reference = reference_run(mod, params, instances)
    return compile_model(mod, params, CompilerOptions()), instances, reference


class SessionMachine(RuleBasedStateMachine):
    """``model``, ``instances``, ``reference`` and ``policy`` are bound per
    test run."""

    model = instances = reference = policy = None

    @initialize()
    def open_session(self):
        name, args = self.policy
        self.clock = SimulatedClock(start=1.0)
        self.session = self.model.serve(name, clock=self.clock, **args)
        self.runtime = self.session.engine.runtime
        #: every handle submitted, with its instance index
        self.submitted = []
        #: the sequence range each request recorded, by handle
        self.ranges = {}
        #: latest arrival stamp handed to the session
        self.last_at = 0.0

    @rule(
        indices=st.lists(st.integers(0, NUM_INSTANCES - 1), min_size=1, max_size=4),
        backdated=st.booleans(),
    )
    def submit(self, indices, backdated):
        # a backdated burst queued while the session was busy: the adaptive
        # policy keeps batching it until the round is full
        at = self.last_at if backdated else None
        for index in indices:
            start = self.runtime.next_seq
            handle = self.session.submit(self.instances[index], at=at)
            self.last_at = handle.submitted_at
            self.submitted.append((handle, index))
            if not handle.done:
                self.ranges[handle] = (start, self.session._seq_ends[-1])

    @precondition(lambda self: self.session.pending_requests)
    @rule(data=st.data())
    def cancel(self, data):
        handle = data.draw(st.sampled_from(self.session.pending_handles))
        assert self.session.cancel(handle)

    @rule()
    def flush(self):
        pending = self.session.pending_requests
        outputs = self.session.flush()
        assert (outputs is None and not pending) or len(outputs) == pending
        assert self.session.pending_requests == 0

    @rule(ms=st.floats(0.0, 6.0))
    def advance_and_poll(self, ms):
        self.clock.advance(ms / 1e3)
        self.session.poll()

    @invariant()
    def resolved_handles_match_the_reference(self):
        for handle, index in self.submitted:
            if not handle.done:
                continue
            error = handle.exception(0)
            if error is None:
                assert bitwise_equal(handle.result(), self.reference[index])
            else:
                assert isinstance(error, RequestCancelled)

    @invariant()
    def an_adaptive_round_never_outgrows_max_batch(self):
        policy = self.session.policy
        if isinstance(policy, AdaptivePolicy):
            assert self.session.pending_requests <= policy.max_batch

    @invariant()
    def one_sequence_end_per_pending_request(self):
        assert len(self.session._seq_ends) == self.session.pending_requests

    @invariant()
    def pending_rows_are_the_pending_requests_ranges(self):
        pending = self.session.pending_handles
        assert [self.ranges[h][1] for h in pending] == self.session._seq_ends
        expected = sorted(s for h in pending for s in range(*self.ranges[h]))
        stored = sorted(s for col in self.runtime._columns.values() for s in col.seqs)
        assert stored == expected


@pytest.mark.parametrize("policy", list(POLICIES.values()), ids=list(POLICIES))
def test_session_bookkeeping_state_machine(treelstm, policy):
    model, instances, reference = treelstm

    class Machine(SessionMachine):
        pass

    Machine.model, Machine.instances, Machine.reference = model, instances, reference
    Machine.policy = policy
    run_state_machine_as_test(
        Machine,
        settings=settings(
            max_examples=30,
            stateful_step_count=25,
            deadline=None,
            derandomize=True,
            database=None,
            suppress_health_check=[HealthCheck.too_slow],
        ),
    )
