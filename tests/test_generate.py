"""Tests for the autoregressive generation subsystem: per-step re-batching
through the serving stack, bitwise reference identity of batched
trajectories, EOS/max-token stopping, streaming, cancellation and deadline
expiry at round-boundary granularity (round-mates untouched), recurrent
state residency, per-step SLO metrics, deterministic replay, and wall-clock
decode behind a running Server, whose loop thread admits every successor
step."""

import sys
import threading
import time
from collections import deque
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CompilerOptions, compile_model
from repro.generate import (
    GenerationCancelled,
    GenerationExpired,
    GenerationRequest,
    GenerationSession,
    reference_generate,
)
from repro.models import MODEL_MODULES
from repro.serve import Server, SimulatedClock, WallClock
from repro.serve.loop import BackpressureFull, LoopStopped
from repro.serve.request import RequestCancelled, RequestExpired

#: deterministic host cost model for flushes: (per_round_ms, per_request_ms)
HOST_MODEL = (0.2, 0.05)


@lru_cache(maxsize=None)
def _setup(name):
    module = MODEL_MODULES[name]
    mod, params, size = module.build_for("test")
    compiled = compile_model(mod, params, CompilerOptions())
    return module, mod, params, size, compiled


def _make_requests(vocab, n, max_new, seed, prompt_lens=(1, 5)):
    """The experiment's open-loop trace in miniature: exponential gaps,
    random prompts."""
    rng = np.random.default_rng(seed)
    t = 0.0
    out = []
    for _ in range(n):
        t += float(rng.exponential(0.0004))
        length = int(rng.integers(*prompt_lens))
        prompt = [int(tok) for tok in rng.integers(0, vocab, length)]
        out.append(GenerationRequest(prompt, max_new_tokens=max_new, arrival=t))
    return out


def _references(name, requests, eos_id=None):
    module, mod, params, size, _ = _setup(name)
    return [
        reference_generate(
            mod, params, module, size, r.prompt, r.max_new_tokens, eos_id=eos_id
        )
        for r in requests
    ]


def _decoder(name, policy="adaptive", clock=None, eos_id=None, device=None,
             **endpoint_args):
    """A ``GenerationSession`` over a one-endpoint server (simulated clock
    unless ``clock`` is given), and the endpoint's serving session."""
    module, _, _, size, compiled = _setup(name)
    server = Server(device, clock=clock or SimulatedClock())
    session = server.add_endpoint("dec", compiled, policy, **endpoint_args).session
    gen = GenerationSession(
        server=server, endpoint="dec", model=module, size=size, eos_id=eos_id
    )
    return gen, session


def _generate(name, requests, policy="adaptive", eos_id=None, host_model=None,
              **policy_args):
    gen, session = _decoder(name, policy, eos_id=eos_id, **policy_args)
    handles = gen.generate(requests, host_model=host_model)
    return handles, session, gen


def _snapshot(handles):
    return [
        (
            tuple(h.tokens),
            h.stats.first_token_at,
            h.stats.finished_at,
            tuple(h.stats.inter_step_ms),
            h.stats.status,
        )
        for h in handles
    ]


class TestReferenceIdentity:
    @pytest.mark.parametrize("name", ["declm", "declm_gru"])
    @pytest.mark.parametrize(
        "policy,args", [("adaptive", {}), ("size", {"n": 1})]
    )
    def test_batched_trajectories_match_eager_reference(self, name, policy, args):
        """Every decode trajectory — continuously batched or one round per
        step — equals the eager unbatched loop bitwise.  The host model
        prices each step (one request) as well as each round, so live
        sequences overlap as they do in the generation table."""
        _, _, _, size, _ = _setup(name)
        requests = _make_requests(size.classes, 6, 6, seed=3)
        reference = _references(name, requests)
        handles, session, _ = _generate(
            name, requests, policy=policy, host_model=HOST_MODEL, **args
        )
        assert [h.result() for h in handles] == reference
        assert all(h.stats.status == "done" for h in handles)
        if policy == "adaptive":
            # the win is real cross-request rounds, not degenerate batches
            assert session.requests_flushed / session.num_flushes > 1.5

    @pytest.mark.parametrize("name", ["declm", "declm_gru"])
    def test_capped_decode_rounds_match_eager_reference(self, name):
        """Decode steps beyond a full adaptive round wait for the next
        round; every trajectory still equals the eager loop bitwise."""
        _, _, _, size, _ = _setup(name)
        requests = _make_requests(size.classes, 6, 6, seed=5)
        reference = _references(name, requests)
        handles, session, _ = _generate(name, requests, max_batch=2)
        assert [h.result() for h in handles] == reference
        assert session.policy.max_batch == 2
        assert 1.0 < session.requests_flushed / session.num_flushes <= 2.0

    def test_eos_early_stop(self):
        """A sequence hitting EOS stops there — exactly where the eager
        reference with the same eos_id stops — and still batches with
        longer round-mates."""
        _, _, _, size, _ = _setup("declm")
        requests = _make_requests(size.classes, 5, 8, seed=5)
        full = _references("declm", requests)
        eos = full[0][1]  # first sequence emits it at index <= 1
        ref_eos = _references("declm", requests, eos_id=eos)
        assert len(ref_eos[0]) < len(full[0])
        handles, _, _ = _generate("declm", requests, eos_id=eos)
        assert [h.result() for h in handles] == ref_eos
        assert handles[0].tokens[-1] == eos
        assert handles[0].stats.status == "done"

    def test_variable_lengths(self):
        """Per-request max_new_tokens: sequences retire at different steps
        while the survivors keep batching."""
        _, _, _, size, _ = _setup("declm")
        rng = np.random.default_rng(6)
        requests = [
            GenerationRequest(
                [int(t) for t in rng.integers(0, size.classes, 2)],
                max_new_tokens=m,
                arrival=i * 0.0003,
            )
            for i, m in enumerate([3, 7, 2, 9, 5])
        ]
        reference = _references("declm", requests)
        handles, _, _ = _generate("declm", requests)
        assert [h.result() for h in handles] == reference
        assert [len(h.tokens) for h in handles] == [3, 7, 2, 9, 5]

    def test_replay_is_bitwise_deterministic(self):
        """Same trace, same tokens AND same timestamps."""
        _, _, _, size, _ = _setup("declm")
        requests = _make_requests(size.classes, 6, 6, seed=7)
        first, _, _ = _generate("declm", requests, host_model=HOST_MODEL)
        requests = _make_requests(size.classes, 6, 6, seed=7)
        again, _, _ = _generate("declm", requests, host_model=HOST_MODEL)
        assert _snapshot(first) == _snapshot(again)


class TestCohortTieRule:
    def test_every_round_flushes_the_whole_cohort(self):
        """N simultaneous length-1 prompts under ``adaptive``: a round's step
        completions share one instant, and each completion's handler admits
        the successor before that instant's device-idle launch, so every
        round carries all N live sequences.  Firing the completions after
        the idle launch splits each cohort into two rounds."""
        _, _, _, size, _ = _setup("declm")
        n, max_new = 5, 4
        rng = np.random.default_rng(23)
        requests = [
            GenerationRequest(
                [int(rng.integers(0, size.classes))],
                max_new_tokens=max_new,
                arrival=0.0,
            )
            for _ in range(n)
        ]
        reference = _references("declm", requests)
        handles, session, _ = _generate("declm", requests, host_model=HOST_MODEL)
        assert [h.result() for h in handles] == reference
        assert [stats.batch_size for stats in session.history] == [n] * max_new


class TestStreamingAndStats:
    def test_on_token_streams_in_order(self):
        _, _, _, size, _ = _setup("declm")
        seen = []
        requests = _make_requests(size.classes, 3, 5, seed=8)
        requests[1].on_token = lambda h, tok, i, at: seen.append((tok, i, at))
        handles, _, _ = _generate("declm", requests)
        assert [tok for tok, _, _ in seen] == handles[1].tokens
        assert [i for _, i, _ in seen] == list(range(len(handles[1].tokens)))
        ats = [at for _, _, at in seen]
        assert ats == sorted(ats)

    def test_stream_iterator_yields_full_sequence(self):
        _, _, _, size, _ = _setup("declm")
        requests = _make_requests(size.classes, 3, 5, seed=9)
        handles, _, _ = _generate("declm", requests)
        for h in handles:
            assert list(h.stream(timeout=1.0)) == h.tokens

    def test_per_sequence_stats(self):
        _, _, _, size, _ = _setup("declm")
        requests = _make_requests(size.classes, 4, 6, seed=10)
        handles, _, _ = _generate("declm", requests)
        for h in handles:
            s = h.stats
            assert s.status == "done"
            assert s.tokens == len(h.tokens) == h.request.max_new_tokens
            # one step per emitted token: the first folds the whole prompt
            # in one round, so prefill adds none
            assert s.steps == s.tokens
            assert s.ttfs_ms is not None and s.ttfs_ms > 0
            assert len(s.inter_step_ms) == s.tokens - 1
            assert s.finished_at >= s.first_token_at >= s.submitted_at

    def test_metrics_summary(self):
        _, _, _, size, _ = _setup("declm")
        requests = _make_requests(size.classes, 4, 5, seed=11)
        _, _, gen = _generate("declm", requests)
        m = gen.metrics.summary()
        assert m["gen_requests"] == 4
        assert m["gen_tokens"] == 4 * 5
        assert m["gen_cancelled"] == 0 and m["gen_expired"] == 0
        assert m["ttfs_p50_ms"] > 0
        assert m["ttfs_p99_ms"] >= m["ttfs_p50_ms"]
        assert m["inter_step_p99_ms"] > 0

    def test_summary_survives_a_multi_loop_topology(self):
        """A ``per_device`` topology rebuilds the endpoint's session when it
        materializes at the replay; the decode metrics attached before that
        still reach ``Server.summary()``."""
        module, _, _, size, compiled = _setup("declm")
        requests = _make_requests(size.classes, 4, 3, seed=43)
        server = Server(2, clock=SimulatedClock(), topology="per_device")
        server.add_endpoint("dec", compiled, "adaptive")
        gen = GenerationSession(server=server, endpoint="dec", model=module, size=size)
        handles = gen.generate(requests)
        assert [h.result() for h in handles] == _references("declm", requests)
        assert server.summary()["dec"]["gen_requests"] == 4

    def test_metrics_stay_bounded_in_a_long_lived_session(self):
        """10^4 decode steps through one session: the aggregate metrics keep
        a fixed footprint (percentiles look back over a window), while the
        counters still cover the whole life."""
        _, _, _, size, _ = _setup("declm")
        gen, session = _decoder("declm")

        def footprint(obj):
            if isinstance(obj, np.ndarray):
                return obj.nbytes
            inner = ()
            if isinstance(obj, (list, tuple, set, frozenset, deque)):
                inner = obj
            elif isinstance(obj, dict):
                inner = list(obj) + list(obj.values())
            elif hasattr(obj, "__dict__"):
                inner = vars(obj).values()
            return sys.getsizeof(obj) + sum(footprint(v) for v in inner)

        sizes, steps = [], 0
        for call in range(6):
            rng = np.random.default_rng(call)
            start = session.clock.now()
            handles = gen.generate(
                [
                    GenerationRequest(
                        [int(rng.integers(0, size.classes))],
                        max_new_tokens=3,
                        arrival=start + 0.0001 * i,
                    )
                    for i in range(1050)
                ]
            )
            steps += sum(h.stats.steps for h in handles)
            sizes.append(footprint(gen.metrics))
        assert steps >= 10_000
        # flat once both windows have filled (4,096 sequences)
        assert sizes[0] < sizes[-2] == sizes[-1] <= 512 * 1024
        m = gen.metrics.summary()
        assert m["gen_requests"] == 6300 and m["gen_tokens"] == 6300 * 3
        assert m["ttfs_p99_ms"] >= m["ttfs_p50_ms"] > 0 and m["inter_step_p99_ms"] > 0

    def test_request_validation(self):
        with pytest.raises(ValueError, match="non-empty prompt"):
            GenerationRequest([])
        with pytest.raises(ValueError, match="max_new_tokens"):
            GenerationRequest([1], max_new_tokens=0)


class TestCancellation:
    def _paired_requests(self, size, n=3, max_new=6):
        """Simultaneous prompt-length-1 requests: every cohort contains one
        step of each live sequence, processed in index order."""
        rng = np.random.default_rng(13)
        return [
            GenerationRequest(
                [int(rng.integers(0, size.classes))],
                max_new_tokens=max_new,
                arrival=0.0,
            )
            for _ in range(n)
        ]

    def test_self_cancel_from_stream_callback(self):
        """A sequence cancelling itself mid-generation is dropped at the
        next round boundary; round-mates stay bitwise identical to the
        uncancelled run."""
        _, _, _, size, _ = _setup("declm")
        requests = self._paired_requests(size)
        reference = _references("declm", requests)
        requests[1].on_token = (
            lambda h, tok, i, at: h.cancel() if i == 1 else None
        )
        handles, session, gen = _generate("declm", requests)

        assert handles[1].stats.status == "cancelled"
        assert handles[1].failed
        with pytest.raises(GenerationCancelled):
            handles[1].result()
        # partial tokens survive, and are the reference prefix
        assert handles[1].tokens == reference[1][:2]
        # round-mates: every token bitwise identical to the reference
        assert handles[0].result() == reference[0]
        assert handles[2].result() == reference[2]
        assert gen.metrics.cancelled == 1
        # the pending step was withdrawn from the shared round before it
        # flushed
        assert session.num_cancelled == 1

    def test_cancel_peer_pending_step_withdrawn(self):
        """Cancelling a sequence whose next step is already pending in the
        round: cancel() withdraws its DFG nodes through the session before
        the round launches, and the round flushes as if it had never
        stepped."""
        _, _, _, size, _ = _setup("declm")
        requests = self._paired_requests(size)
        reference = _references("declm", requests)
        box = {}
        requests[0].on_token = lambda h, tok, i, at: box.__setitem__(0, h)
        # sequence 2 is processed after sequence 0 in each cohort, so by the
        # time this fires, sequence 0's next step is pending un-flushed
        requests[2].on_token = (
            lambda h, tok, i, at: box[0].cancel() if i == 1 else None
        )
        handles, session, gen = _generate("declm", requests)

        assert handles[0].stats.status == "cancelled"
        assert handles[0].tokens == reference[0][:2]
        with pytest.raises(RequestCancelled):  # superclass catches it too
            handles[0].result()
        assert session.num_cancelled == 1
        assert handles[1].result() == reference[1]
        assert handles[2].result() == reference[2]
        assert gen.metrics.cancelled == 1

    def test_cancel_peer_mid_cohort(self):
        """Cancelling a sequence after its step flushed but before its
        result was consumed: the result is discarded, no token is emitted
        from it."""
        _, _, _, size, _ = _setup("declm")
        requests = self._paired_requests(size)
        reference = _references("declm", requests)
        box = {}
        requests[2].on_token = lambda h, tok, i, at: box.__setitem__(2, h)
        # sequence 0 is processed before sequence 2 in each cohort: at
        # cohort k>0 this cancels sequence 2 between its flush and its
        # consume
        requests[0].on_token = (
            lambda h, tok, i, at: box[2].cancel() if i == 1 else None
        )
        handles, _, gen = _generate("declm", requests)

        assert handles[2].stats.status == "cancelled"
        assert handles[2].tokens == reference[2][:1]
        assert handles[0].result() == reference[0]
        assert handles[1].result() == reference[1]
        assert gen.metrics.cancelled == 1

    def test_cancel_after_done_returns_false(self):
        _, _, _, size, _ = _setup("declm")
        requests = self._paired_requests(size, n=1, max_new=2)
        handles, _, _ = _generate("declm", requests)
        assert handles[0].stats.status == "done"
        assert handles[0].cancel() is False

    def test_raising_on_token_fails_only_its_sequence(self):
        _, _, _, size, _ = _setup("declm")
        requests = self._paired_requests(size)
        reference = _references("declm", requests)

        def boom(h, tok, i, at):
            if i == 1:
                raise RuntimeError("consumer exploded")

        requests[1].on_token = boom
        handles, _, _ = _generate("declm", requests)
        assert handles[1].stats.status == "failed"
        with pytest.raises(RuntimeError, match="consumer exploded"):
            handles[1].result()
        assert handles[0].result() == reference[0]
        assert handles[2].result() == reference[2]


class TestDeadlines:
    def test_deadline_expiry_mid_generation(self):
        """A deadline passing mid-decode drops the sequence at the next
        round boundary with its partial tokens; round-mates finish
        untouched."""
        _, _, _, size, _ = _setup("declm")
        rng = np.random.default_rng(17)
        mk = lambda: [  # noqa: E731
            GenerationRequest(
                [int(rng.integers(0, size.classes))],
                max_new_tokens=8,
                arrival=i * 0.0002,
            )
            for i in range(3)
        ]
        baseline = _generate("declm", mk())[0]
        reference = [list(h.tokens) for h in baseline]
        # place the deadline between token 1 and token 2 of sequence 1
        s = baseline[1].stats
        emit_at = [s.first_token_at]
        for gap in s.inter_step_ms:
            emit_at.append(emit_at[-1] + gap / 1e3)
        deadline = (emit_at[1] + emit_at[2]) / 2

        rng = np.random.default_rng(17)
        requests = mk()
        requests[1].deadline = deadline
        handles, _, gen = _generate("declm", requests)

        assert handles[1].stats.status == "expired"
        assert handles[1].tokens == reference[1][:2]
        with pytest.raises(GenerationExpired):
            handles[1].result()
        with pytest.raises(RequestExpired):  # superclass catches it too
            handles[1].result()
        assert handles[0].result() == reference[0]
        assert handles[2].result() == reference[2]
        assert gen.metrics.expired == 1

    def test_deadline_dead_on_arrival(self):
        _, _, _, size, _ = _setup("declm")
        requests = [
            GenerationRequest([1], max_new_tokens=4, arrival=0.0),
            GenerationRequest(
                [2], max_new_tokens=4, arrival=0.002, deadline=0.001
            ),
        ]
        reference = _references("declm", requests)
        handles, _, gen = _generate("declm", requests)
        assert handles[1].stats.status == "expired"
        assert handles[1].tokens == []
        assert handles[1].stats.steps == 0
        with pytest.raises(GenerationExpired):
            handles[1].result()
        assert handles[0].result() == reference[0]
        assert gen.metrics.expired == 1


class TestStateResidency:
    def test_feedback_state_stays_on_device(self):
        """The fed-back recurrent state is a device-born arena view marked
        resident: steady-state decode rounds charge no host->device copy
        for it.  Disabling the residency mark must strictly increase memcpy
        traffic and change no token."""
        _, _, _, size, _ = _setup("declm")

        def run(mark):
            requests = _make_requests(size.classes, 4, 6, seed=19)
            gen, session = _decoder("declm")
            if not mark:
                session.engine.device.note_resident = lambda array: None
            copies = []
            flush = session.flush

            def counting_flush(*a, **k):
                out = flush(*a, **k)
                if session.last_stats is not None:
                    copies.append(session.last_stats.device["num_memcpy"])
                return out

            session.flush = counting_flush
            handles = gen.generate(requests)
            return [h.result() for h in handles], sum(copies)

        tokens_on, copies_on = run(True)
        tokens_off, copies_off = run(False)
        assert tokens_on == tokens_off
        assert copies_on < copies_off


class TestModes:
    def test_needs_a_server_endpoint(self):
        module, _, _, size, _ = _setup("declm")
        with pytest.raises(TypeError, match="server"):
            GenerationSession(model=module, size=size)
        with pytest.raises(KeyError, match="no-such"):
            GenerationSession(
                server=Server(), endpoint="no-such", model=module, size=size
            )

    def test_generate_requires_simulated_clock(self):
        gen, _ = _decoder("declm", clock=WallClock())
        with pytest.raises(TypeError, match="SimulatedClock"):
            gen.generate([GenerationRequest([1])])

    def test_submit_without_a_running_loop_fails_the_sequence(self):
        """On a server whose loop is not running (a simulated clock never
        runs one) the prompt is refused, and the handle fails with it."""
        gen, _ = _decoder("declm")
        handle = gen.submit(GenerationRequest([1]))
        assert handle.stats.status == "failed"
        with pytest.raises(LoopStopped):
            handle.result(timeout=1.0)
        gen.drain(timeout=1.0)

    def test_wall_clock_generation_through_server(self):
        """End-to-end wall-clock mode: the loop thread admits each
        successor step from its predecessor's done callback, tokens
        stream, and the endpoint summary surfaces the decode SLO
        metrics."""
        module, mod, params, size, _ = _setup("declm")
        requests = [
            GenerationRequest([3, 1], max_new_tokens=4),
            GenerationRequest([5], max_new_tokens=3),
        ]
        reference = [
            reference_generate(
                mod, params, module, size, r.prompt, r.max_new_tokens
            )
            for r in requests
        ]
        server = Server()
        server.add_endpoint(
            "dec", compile_model(mod, params, CompilerOptions()), policy="size", n=1
        )
        with server.run():
            with GenerationSession(
                server=server, endpoint="dec", model=module, size=size
            ) as gen:
                handles = [gen.submit(r) for r in requests]
                streamed = list(handles[0].stream(timeout=10.0))
                assert [h.result(timeout=10.0) for h in handles] == reference
                assert streamed == reference[0]
                gen.drain(timeout=10.0)
            summary = server.summary()["dec"]
            assert summary["gen_requests"] == 2
            assert summary["gen_tokens"] == 7
            assert summary["ttfs_p50_ms"] > 0

    def test_wall_clock_cancel_before_first_token(self):
        """A cancel right after submit drops the sequence when its prompt
        step completes (a round boundary), or it finishes first."""
        module, mod, params, size, _ = _setup("declm")
        server = Server()
        server.add_endpoint(
            "dec", compile_model(mod, params, CompilerOptions()), policy="size", n=1
        )
        with server.run():
            with GenerationSession(
                server=server, endpoint="dec", model=module, size=size
            ) as gen:
                req = GenerationRequest([1], max_new_tokens=4)
                done = GenerationRequest([2], max_new_tokens=2)
                h_done = gen.submit(done)
                h_done.result(timeout=10.0)
                h = gen.submit(req)
                h.cancel()
                gen.drain(timeout=10.0)
                assert h.stats.status in ("cancelled", "done")
                if h.stats.status == "cancelled":
                    with pytest.raises(GenerationCancelled):
                        h.result(timeout=1.0)


class TestWallBackpressure:
    """On the wall clock each successor step is admitted on the serve-loop
    thread, from its predecessor's done callback."""

    N = 8
    MAX_NEW = 3

    def _decoder(self, policy, **server_args):
        module, _, _, size, compiled = _setup("declm_gru")
        server = Server(**server_args)
        name, args = policy
        endpoint = server.add_endpoint("dec", compiled, name, **args)
        gen = GenerationSession(server=server, endpoint="dec", model=module, size=size)
        return server, endpoint, gen

    def _requests(self, size):
        rng = np.random.default_rng(41)
        return [
            GenerationRequest(
                [int(t) for t in rng.integers(0, size.classes, 1 + i % 3)],
                max_new_tokens=self.MAX_NEW,
            )
            for i in range(self.N)
        ]

    def test_block_never_waits_on_the_loop_thread(self):
        """``size(8)`` flushes all eight steps in one round, whose done
        callbacks admit eight successors into a queue bounded at two.  A
        loop-thread admission waiting on ``block`` would wait for itself;
        instead it goes in over the bound, and every sequence finishes."""
        server, _, gen = self._decoder(
            ("size", {"n": self.N}), max_pending=2, backpressure="block"
        )
        requests = self._requests(gen.size)
        reference = _references("declm_gru", requests)
        with server.run():
            handles = [gen.submit(r) for r in requests]
            assert [h.result(timeout=10.0) for h in handles] == reference

    def test_reject_fails_only_the_refused_successors_sequence(self):
        """``reject`` refuses a loop-thread admission over the bound: the
        refused successor fails its own sequence with ``BackpressureFull``
        after the token its predecessor emitted, and the others finish
        bitwise equal to the reference."""
        server, endpoint, gen = self._decoder(
            ("manual", {}), max_pending=2, backpressure="reject"
        )
        requests = self._requests(gen.size)[:4]
        reference = _references("declm_gru", requests)
        with server.run():
            handles = []
            for i, r in enumerate(requests):
                handles.append(gen.submit(r))
                # one prompt at a time: each reaches the round before the
                # next is admitted, so no prompt meets a full queue
                while endpoint.pending_requests < i + 1 and not handles[i].done:
                    time.sleep(0.001)
            while not all(h.done for h in handles):
                server.drain()  # flush the manual policy's round
        # the first round's four done callbacks admit two successors and
        # have two refused
        refused = [h for h in handles if h.failed]
        assert len(refused) == 2
        for h in refused:
            assert isinstance(h.error, BackpressureFull)
            assert h.stats.status == "failed" and len(h.tokens) == 1
        for h, ref in zip(handles, reference):
            if h.failed:
                assert h.tokens == ref[:1]
            else:
                assert h.result() == ref
        assert server.loop.num_rejected == 2

    def test_a_wall_run_starts_no_thread(self):
        server, _, gen = self._decoder(("size", {"n": 1}))
        requests = self._requests(gen.size)
        with server.run():
            before = sorted(t.name for t in threading.enumerate())
            with gen:
                handles = [gen.submit(r) for r in requests]
                during = sorted(t.name for t in threading.enumerate())
            assert all(h.stats.status == "done" for h in handles)
            after = sorted(t.name for t in threading.enumerate())
        assert before == during == after


class TestPrefillFold:
    """A prompt is one request: the decoder folds over its tokens, so the
    prefill chain of each prompt runs inside one round, batched by depth
    with every other chain in it."""

    PROMPT_LENGTHS = (1, 2, 3, 4, 5, 6, 7)

    def _requests(self, size):
        rng = np.random.default_rng(29)
        return [
            GenerationRequest(
                [int(t) for t in rng.integers(0, size.classes, k)],
                max_new_tokens=3,
                arrival=0.0002 * i,
            )
            for i, k in enumerate(self.PROMPT_LENGTHS)
        ]

    @pytest.mark.parametrize("name", ["declm", "declm_gru"])
    def test_simulated_prompts_match_reference(self, name):
        _, _, _, size, _ = _setup(name)
        requests = self._requests(size)
        reference = _references(name, requests)
        handles, _, _ = _generate(name, requests, host_model=HOST_MODEL)
        assert [h.result() for h in handles] == reference
        assert all(h.stats.steps == h.stats.tokens == 3 for h in handles)

    @pytest.mark.parametrize("name", ["declm", "declm_gru"])
    def test_wall_prompts_match_reference_with_one_admission_per_prompt(self, name):
        """Each prompt enters the server once, as the whole token list;
        every later admission is one fed-back token."""
        module, mod, params, size, compiled = _setup(name)
        requests = self._requests(size)
        reference = _references(name, requests)
        server = Server()
        server.add_endpoint("dec", compiled, policy="size", n=1)
        admitted = []
        submit = server.submit

        def counting_submit(endpoint, instance, **kwargs):
            admitted.append(len(mod.from_list(instance["tokens"])))
            return submit(endpoint, instance, **kwargs)

        server.submit = counting_submit
        with server.run():
            with GenerationSession(
                server=server, endpoint="dec", model=module, size=size
            ) as gen:
                handles = [gen.submit(r) for r in requests]
                assert [h.result(timeout=30.0) for h in handles] == reference
        decode_steps = sum(r.max_new_tokens - 1 for r in requests)
        assert sorted(admitted) == sorted([1] * decode_steps + list(self.PROMPT_LENGTHS))
        assert all(h.stats.steps == h.stats.tokens for h in handles)

    def test_mixed_round_batches_the_chains_by_depth(self):
        """Prefills of several lengths and a decode step in one round: the
        longest chain's batches sit at depths 0..k-1, and the batch at depth
        d holds one row per prompt longer than d."""
        from repro import reference_run
        from repro.utils import bitwise_equal

        module, mod, params, size, compiled = _setup("declm_gru")
        emb = module.embedding(size)
        rng = np.random.default_rng(31)
        lengths = [3, 1, 5, 2, 5]
        batch = [
            module.instance_input(
                mod,
                (
                    module.initial_state(size),
                    [emb[t : t + 1] for t in rng.integers(0, size.classes, k)],
                ),
            )
            for k in lengths
        ]
        session = compiled.serve("manual")
        handles = [session.submit(instance) for instance in batch]
        session.flush()
        assert bitwise_equal(
            [h.result() for h in handles], reference_run(mod, params, batch)
        )
        trace = session.engine.runtime.trace
        batches = [r for r in trace.records if r[0] == "batch"]
        assert [(r[2], r[4], r[5]) for r in batches] == [
            ("decode_fold_b0", d, sum(1 for k in lengths if k > d))
            for d in range(max(lengths))
        ]

    def test_cancel_and_deadline_act_at_round_boundaries(self):
        """A long prompt's prefill is one round: a deadline that passes
        during it drops the sequence before its first token, and a cancel or
        deadline after the first token keeps exactly that token; the
        round-mate is untouched."""
        _, _, _, size, _ = _setup("declm")

        def pair():
            rng = np.random.default_rng(37)
            return [
                GenerationRequest([int(rng.integers(0, size.classes))], max_new_tokens=4),
                GenerationRequest(
                    [int(t) for t in rng.integers(0, size.classes, 6)], max_new_tokens=4
                ),
            ]

        reference = _references("declm", pair())
        baseline, _, _ = _generate("declm", pair())
        first_at = baseline[1].stats.first_token_at
        second_at = first_at + baseline[1].stats.inter_step_ms[0] / 1e3

        requests = pair()
        requests[1].on_token = lambda h, tok, i, at: h.cancel()
        handles, session, gen = _generate("declm", requests)
        assert handles[1].stats.status == "cancelled"
        assert handles[1].tokens == reference[1][:1] and handles[1].stats.steps == 1
        assert session.num_cancelled == 1  # the successor step was withdrawn
        assert handles[0].result() == reference[0]

        for deadline, kept in ((first_at / 2, 0), ((first_at + second_at) / 2, 1)):
            requests = pair()
            requests[1].deadline = deadline
            handles, _, gen = _generate("declm", requests)
            assert handles[1].stats.status == "expired"
            assert handles[1].tokens == reference[1][:kept]
            assert handles[0].result() == reference[0]
            assert gen.metrics.expired == 1


#: flush policies the generative decode test draws from: ``size(3)`` and
#: ``manual`` leave steps pending with no flush scheduled, so the trace
#: driver's drain is what makes progress
DECODE_POLICIES = {
    "size1": ("size", {"n": 1}),
    "size3": ("size", {"n": 3}),
    "deadline": ("deadline", {"ms": 0.5}),
    "adaptive": ("adaptive", {}),
    "manual": ("manual", {}),
}


@lru_cache(maxsize=None)
def _reference_tokens(prompt, max_new):
    module, mod, params, size, _ = _setup("declm")
    return reference_generate(mod, params, module, size, list(prompt), max_new)


@st.composite
def _prompt_traces(draw):
    """A few sequences: prompts of 1-3 tokens, 1-4 new tokens each, arrival
    gaps from simultaneous to several rounds apart."""
    _, _, _, size, _ = _setup("declm")
    token = st.integers(0, size.classes - 1)
    trace, t = [], 0.0
    for _ in range(draw(st.integers(1, 4))):
        t += draw(st.sampled_from([0.0, 0.0001, 0.0006, 0.003]))
        prompt = tuple(draw(st.lists(token, min_size=1, max_size=3)))
        trace.append((prompt, draw(st.integers(1, 4)), t))
    return trace


class TestGenerativeDecode:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        trace=_prompt_traces(),
        policy=st.sampled_from(sorted(DECODE_POLICIES)),
        devices=st.sampled_from([1, 2]),
    )
    def test_every_draw_finishes_matches_reference_and_replays(
        self, trace, policy, devices
    ):
        """Random prompt traces x flush policies x 1-2 devices: every handle
        finishes, every trajectory equals the eager reference bitwise, and
        two replays of the trace produce identical tokens and timestamps."""
        name, args = DECODE_POLICIES[policy]
        if devices > 1:
            args = dict(args, device=devices, placement="round_robin")

        def replay():
            gen, _ = _decoder("declm", name, **args)
            requests = [
                GenerationRequest(list(prompt), max_new_tokens=m, arrival=t)
                for prompt, m, t in trace
            ]
            return gen.generate(requests, host_model=HOST_MODEL)

        handles = replay()
        assert all(h.done and h.stats.status == "done" for h in handles)
        assert [h.tokens for h in handles] == [
            _reference_tokens(prompt, m) for prompt, m, _ in trace
        ]
        assert _snapshot(handles) == _snapshot(replay())
