"""Tests for the shape-keyed kernel-specialization tier: the promotion
state machine, end-to-end reference identity of specialized serving across
scheduler policies / models / device counts, the tier's accounting, and the
one-resolve / one-commit contract (a promoted launch gets its operands from
``MemoryPlanner.resolve`` and stores its outputs through
``MemoryPlanner.commit`` like every other launch)."""

import numpy as np
import pytest

from repro import CompilerOptions, compile_model, reference_run
from repro.generate import GenerationRequest, GenerationSession, reference_generate
from repro.memory.planner import MemoryPlanner
from repro.models import MODEL_MODULES
from repro.runtime.device import DeviceSimulator
from repro.runtime.executor import AcrobatRuntime
from repro.serve import SimulatedClock
from repro.specialize import (
    BUILD,
    COLD,
    DEMOTED,
    PROMOTED,
    SpecializationCache,
    SpecializedEntry,
)
from repro.utils import flatten_arrays, values_allclose

ALL_POLICIES = ("inline_depth", "dynamic_depth", "agenda", "nobatch", "dynet")
MODELS = ("treelstm", "birnn", "stackrnn")


def exact_equal(a, b):
    """Bitwise reference identity over nested output structures."""
    fa, fb = flatten_arrays(a), flatten_arrays(b)
    return len(fa) == len(fb) and all(
        np.array_equal(np.asarray(x), np.asarray(y)) for x, y in zip(fa, fb)
    )


def build_setup(model_name, batch=4, seed=3):
    module = MODEL_MODULES[model_name]
    mod, params, size = module.build_for("test")
    instances = module.make_batch(mod, size, batch, seed=seed)
    reference = reference_run(mod, params, instances)
    return mod, params, instances, reference


class _FakeEntry:
    frozen_nbytes = 64.0
    accepts = True

    def __init__(self, *args):
        pass

    def try_resolve(self, operands):
        return self.accepts


def _cache():
    """A cache whose fingerprints promote on their first launch."""
    cache = SpecializationCache()
    cache.threshold = 1
    return cache


def _promote(cache, slot):
    assert cache.poll(slot, None) is BUILD
    return cache.build_and_install(slot, None, 1, None, None, None)


def _never_arm(monkeypatch):
    """The control for accounting comparisons: same stack, tier dormant."""
    monkeypatch.setattr(AcrobatRuntime, "arm_specialization", lambda self: None)


def _device_ledger(session):
    """Every round's aggregate and per-device counters, in flush order."""
    return [(stats.device, stats.per_device) for stats in session.history]


class TestStateMachine:
    """Unit tests of the promotion state machine, with the entry builder
    stubbed so no runtime is needed."""

    def test_arm_is_idempotent(self):
        cache = SpecializationCache()
        assert not cache.armed
        assert cache.arm() is True
        assert cache.arm() is False
        assert cache.armed

    def test_cold_counts_to_threshold_then_builds(self):
        cache = SpecializationCache()
        assert cache.threshold == 3
        slot = cache.make_slot()
        assert slot.state == COLD
        assert cache.poll(slot, None) is None
        assert cache.poll(slot, None) is None
        assert cache.poll(slot, None) is BUILD  # third launch crosses threshold
        assert cache.misses == 3

    def test_build_promotes_and_counts(self, monkeypatch):
        monkeypatch.setattr("repro.specialize.cache.SpecializedEntry", _FakeEntry)
        cache = _cache()
        slot = cache.make_slot()
        entry = _promote(cache, slot)
        assert slot.state == PROMOTED
        assert cache.promotions == 1 and cache.entries == 1
        assert cache.frozen_bytes == 64.0
        # promoted slots now replay the entry: hits, not misses
        misses_before = cache.misses
        assert cache.poll(slot, None) is entry
        assert cache.misses == misses_before and cache.hits == 1

    def test_failed_shape_check_demotes_and_counts_a_miss(self, monkeypatch):
        monkeypatch.setattr("repro.specialize.cache.SpecializedEntry", _FakeEntry)
        cache = _cache()
        slot = cache.make_slot()
        _promote(cache, slot).accepts = False
        assert cache.poll(slot, None) is None  # this launch runs generic
        assert slot.state == DEMOTED and slot.entry is None
        assert (cache.demotions, cache.hits, cache.misses) == (1, 0, 2)

    def test_demotion_is_terminal_and_releases_state(self, monkeypatch):
        monkeypatch.setattr("repro.specialize.cache.SpecializedEntry", _FakeEntry)
        cache = _cache()
        slot = cache.make_slot()
        _promote(cache, slot)
        cache.demote(slot)
        assert slot.state == DEMOTED and slot.entry is None
        assert cache.demotions == 1
        assert cache.entries == 0 and cache.frozen_bytes == 0.0
        for _ in range(5):
            assert cache.poll(slot, None) is None  # never promotes again
        assert slot.state == DEMOTED

    def test_max_entries_caps_new_promotions(self, monkeypatch):
        monkeypatch.setattr("repro.specialize.cache.SpecializedEntry", _FakeEntry)
        cache = _cache()
        cache.max_entries = 2
        promoted = []
        for _ in range(2):
            slot = cache.make_slot()
            _promote(cache, slot)
            promoted.append(slot)
        capped = cache.make_slot()
        assert cache.poll(capped, None) is None  # at capacity: no new BUILDs
        assert capped.state == COLD
        # existing entries keep hitting
        assert cache.poll(promoted[0], None) is promoted[0].entry

    def test_release_slots_returns_capacity(self, monkeypatch):
        monkeypatch.setattr("repro.specialize.cache.SpecializedEntry", _FakeEntry)
        cache = _cache()
        cache.max_entries = 1
        slot = cache.make_slot()
        _promote(cache, slot)
        assert cache.entries == 1
        cache.release_slots([slot])
        assert cache.entries == 0 and cache.frozen_bytes == 0.0
        # capacity freed: a fresh fingerprint can promote again
        fresh = cache.make_slot()
        assert cache.poll(fresh, None) is BUILD
        cache.release_slots(None)  # tolerated

    def test_released_slots_keep_counting_launches(self, monkeypatch):
        """A plan instantiated before its template's LRU eviction carries
        the template's slots: each later launch must count as a miss (not
        vanish into a PROMOTED slot with no entry), and an orphaned slot
        must never promote again — nobody is left to release it."""
        monkeypatch.setattr("repro.specialize.cache.SpecializedEntry", _FakeEntry)
        cache = _cache()
        promoted, cold = cache.make_slot(), cache.make_slot()
        _promote(cache, promoted)
        cache.release_slots([promoted, cold])
        hits, misses = cache.hits, cache.misses
        for slot in (promoted, cold, promoted, cold):
            assert cache.poll(slot, None) is None
        assert (cache.hits, cache.misses) == (hits, misses + 4)
        assert promoted.state == cold.state == DEMOTED
        assert cache.entries == 0 and cache.frozen_bytes == 0.0
        assert cache.demotions == 0  # an eviction is not a failed check

    def test_stats_dict_shape(self):
        stats = SpecializationCache().stats_dict()
        assert set(stats) == {
            "promotions",
            "demotions",
            "hits",
            "misses",
            "entries",
            "frozen_bytes",
        }


class TestPromotionEndToEnd:
    def test_sessions_promote_and_hit(self):
        mod, params, instances, reference = build_setup("treelstm")
        model = compile_model(mod, params, CompilerOptions())
        session = model.session(flush_policy="size", flush_args={"n": len(instances)})
        for round_no in range(6):
            handles = [session.submit(i) for i in instances]
            session.flush()
            assert all(
                exact_equal(r, h.result())
                for r, h in zip(reference, handles)
            ), f"round {round_no} diverged"
        spec = session.last_stats.specialize
        assert spec["promotions"] > 0
        assert spec["hits"] > 0
        assert spec["demotions"] == 0
        assert spec["entries"] == spec["promotions"]
        assert spec["frozen_bytes"] > 0
        # the host-time ledger has a specialize bucket once armed
        assert "specialize" in session.last_stats.host_ms

    def test_promotion_respects_threshold(self):
        mod, params, instances, _ = build_setup("treelstm")
        model = compile_model(mod, params, CompilerOptions())
        session = model.session(flush_policy="size", flush_args={"n": len(instances)})
        # rounds 1-3 count (the third launch builds, still generic) …
        for _ in range(3):
            for i in instances:
                session.submit(i)
            session.flush()
        spec = session.last_stats.specialize
        assert spec["promotions"] > 0
        assert spec["hits"] == 0
        # … and round 4 is the first specialized dispatch
        for i in instances:
            session.submit(i)
        session.flush()
        assert session.last_stats.specialize["hits"] > 0

    def test_shape_never_seen_twice_never_promotes(self):
        module = MODEL_MODULES["treelstm"]
        mod, params, size = module.build_for("test")
        model = compile_model(mod, params, CompilerOptions())
        session = model.session(flush_policy="size", flush_args={"n": 4})
        for round_no in range(6):
            batch = module.make_batch(mod, size, 4, seed=100 + round_no)
            reference = reference_run(mod, params, batch)
            handles = [session.submit(i) for i in batch]
            session.flush()
            assert all(
                values_allclose(r, h.result())
                for r, h in zip(reference, handles)
            )
        spec = session.last_stats.specialize
        assert spec["promotions"] == 0
        assert spec["hits"] == 0

    def test_demotion_falls_back_to_identical_results(self, monkeypatch):
        """One promoted fingerprint fails its shape check mid-session: the
        launch finishes on the operands already resolved (no second resolve,
        no double charge), bitwise equal to the reference, and that
        fingerprint alone stays off the tier."""
        mod, params, instances, reference = build_setup("treelstm")
        rounds = 6

        def serve(demote_in_round=None):
            model = compile_model(mod, params, CompilerOptions())
            session = model.session(
                flush_policy="size",
                flush_args={"n": len(instances)},
                devices=4,
                placement="round_robin",
            )
            for round_no in range(rounds):
                if round_no == demote_in_round:
                    victim = []

                    def failing(entry, operands, real=SpecializedEntry.try_resolve):
                        victim.append(entry)
                        return entry is not victim[0] and real(entry, operands)

                    monkeypatch.setattr(SpecializedEntry, "try_resolve", failing)
                handles = [session.submit(i) for i in instances]
                session.flush()
                assert all(
                    exact_equal(r, h.result()) for r, h in zip(reference, handles)
                ), f"round {round_no} diverged"
                if round_no == demote_in_round:
                    monkeypatch.setattr(SpecializedEntry, "try_resolve", real_check)
            return session

        real_check = SpecializedEntry.try_resolve
        resolved = []  # holds the plans, so ids stay unique
        real_resolve = MemoryPlanner.resolve
        monkeypatch.setattr(
            MemoryPlanner,
            "resolve",
            lambda planner, plan, *args: (
                resolved.append(plan),
                real_resolve(planner, plan, *args),
            )[1],
        )
        demoted = serve(demote_in_round=4)
        assert len({id(plan) for plan in resolved}) == len(resolved)
        spec = demoted.last_stats.specialize
        assert spec["demotions"] == 1
        assert spec["entries"] == spec["promotions"] - 1
        # permanent: the demoted fingerprint missed in rounds 4 and 5, every
        # other promoted one hit in both
        per_round = spec["promotions"]
        assert spec["hits"] == 3 * per_round - 2
        assert spec["hits"] + spec["misses"] == rounds * per_round

        with monkeypatch.context() as patch:
            _never_arm(patch)
            control = serve()
        assert control.last_stats.specialize["misses"] == 0
        assert _device_ledger(demoted) == _device_ledger(control)

    def test_missized_operand_raises_the_generic_error_on_a_promoted_entry(
        self, monkeypatch
    ):
        """Both tiers run one block program, so a promoted fingerprint makes
        the generic path's batch-dimension and part-count checks too."""
        from repro.kernels import BatchedOperand

        mod, params, instances, _ = build_setup("treelstm")
        model = compile_model(mod, params, CompilerOptions())
        session = model.session(flush_policy="size", flush_args={"n": len(instances)})
        dispatched = []
        real = SpecializedEntry.execute
        monkeypatch.setattr(
            SpecializedEntry,
            "execute",
            lambda entry, operands: (
                dispatched.append((entry, list(operands))),
                real(entry, operands),
            )[1],
        )
        for _ in range(4):
            for i in instances:
                session.submit(i)
            session.flush()
        monkeypatch.undo()
        checked = 0
        forms = set()
        for entry, operands in dispatched:
            kernel = entry.kernel
            for inp in kernel.block.inputs:
                op = operands[inp.index]
                if inp.shared or entry.batch_size < 2:
                    continue
                if op.array is not None:
                    short = BatchedOperand.batched(op.array[:-1])
                    forms.add("array")
                elif op.parts is not None:
                    short = BatchedOperand(
                        shared=False, parts=op.parts[:-1], scattered=op.scattered
                    )
                    forms.add("parts")
                else:
                    # the index form names its instances per source arena:
                    # drop the batch's last row from whichever segment has it
                    last = entry.batch_size - 1
                    segments = [
                        (arena, None, offsets[:-1])
                        if positions is None
                        else (arena, positions[positions != last], offsets[positions != last])
                        for arena, positions, offsets in op.segments
                    ]
                    short = BatchedOperand(
                        shared=False, segments=segments, scattered=op.scattered
                    )
                    forms.add("segments")
                bad = operands[: inp.index] + [short] + operands[inp.index + 1:]
                expected = f"block {kernel.name}: varying input {inp.name} got"
                with pytest.raises(ValueError, match=expected) as special:
                    entry.execute(bad)
                with pytest.raises(ValueError, match=expected) as generic:
                    kernel.execute_batched(bad, entry.batch_size)
                assert str(special.value) == str(generic.value)
                checked += 1
        assert checked > 0
        # the count check guards the index form as it guarded the parts form
        assert {"segments", "parts"} <= forms

    @pytest.mark.parametrize("off", [{"plan_cache": False}, {"validate": True}])
    def test_tier_exists_iff_plan_cache_and_not_validate(self, off):
        mod, params, instances, _ = build_setup("treelstm")
        model = compile_model(mod, params, CompilerOptions(**off))
        session = model.session(flush_policy="size", flush_args={"n": len(instances)})
        for _ in range(5):
            for i in instances:
                session.submit(i)
            session.flush()
        assert session.engine.runtime.specializer is None
        assert session.last_stats.specialize == {}
        assert "specialize" not in session.last_stats.host_ms

    def test_one_shot_runs_leave_tier_dormant(self):
        mod, params, instances, _ = build_setup("treelstm")
        model = compile_model(mod, params, CompilerOptions())
        engine = model.make_engine()
        for _ in range(5):
            engine.run(instances)
        _, stats = engine.run(instances)
        assert stats.specialize.get("promotions", 0) == 0
        assert stats.specialize.get("misses", 0) == 0


class TestOneResolveOneCommit:
    """The tier owns no planner work: while a decode stream promotes and
    then hits, every launch — promoted or not — goes through
    ``MemoryPlanner.resolve`` and ``MemoryPlanner.commit`` exactly once, and
    everything charged to the devices equals the never-armed run's."""

    def test_declm_generation_promotes_through_the_planner(self, monkeypatch):
        module = MODEL_MODULES["declm"]
        mod, params, size = module.build_for("test")
        rng = np.random.default_rng(2)
        requests = [
            GenerationRequest(
                [int(t) for t in rng.integers(0, size.classes, 2)],
                max_new_tokens=8,
                arrival=0.0,
            )
            for _ in range(4)
        ]
        reference = [
            reference_generate(mod, params, module, size, r.prompt, r.max_new_tokens)
            for r in requests
        ]

        calls = {"resolve": 0, "commit": 0, "launches": 0}
        record_sums = np.zeros(4)

        def counting(owner, name):
            real = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        counting(MemoryPlanner, "resolve")
        counting(MemoryPlanner, "commit")
        real_execute = AcrobatRuntime._execute_batch

        def one_launch(runtime, plan):
            before = calls["resolve"], calls["commit"]
            real_execute(runtime, plan)
            calls["launches"] += 1
            assert (calls["resolve"], calls["commit"]) == (before[0] + 1, before[1] + 1)

        monkeypatch.setattr(AcrobatRuntime, "_execute_batch", one_launch)
        real_launch = DeviceSimulator.launch

        def summing(device, record, **kwargs):
            record_sums[:] += (
                record.flops, record.bytes_read, record.bytes_written, record.scattered_bytes,
            )
            return real_launch(device, record, **kwargs)

        monkeypatch.setattr(DeviceSimulator, "launch", summing)

        def generate():
            calls.update(resolve=0, commit=0, launches=0)
            record_sums[:] = 0
            session = compile_model(mod, params).serve("adaptive", clock=SimulatedClock())
            handles = GenerationSession(session, module, size).generate(requests)
            assert [h.result() for h in handles] == reference
            return session, dict(calls), record_sums.copy()

        session, armed_calls, armed_sums = generate()
        spec = session.last_stats.specialize
        assert spec["promotions"] > 0 and spec["hits"] > 0 and spec["demotions"] == 0
        assert armed_calls["launches"] >= spec["hits"] + spec["misses"] > 0
        assert armed_calls["resolve"] == armed_calls["commit"] == armed_calls["launches"]

        _never_arm(monkeypatch)
        control, control_calls, control_sums = generate()
        assert control.last_stats.specialize["hits"] == 0
        assert control_calls == armed_calls
        assert np.array_equal(armed_sums, control_sums)
        assert _device_ledger(session) == _device_ledger(control)


class TestReferenceIdentity:
    """Specialized serving must be bitwise-identical to the NumPy oracle
    across every scheduler policy, model, and device count — enforced both
    end-to-end and per-launch (crosscheck re-runs the oracle on the same
    operands for every specialized dispatch)."""

    @pytest.mark.parametrize("model_name", MODELS)
    @pytest.mark.parametrize("policy", ALL_POLICIES)
    @pytest.mark.parametrize("devices", [1, 4])
    def test_specialized_matches_oracle(self, model_name, policy, devices):
        mod, params, instances, reference = build_setup(model_name)
        model = compile_model(
            mod, params, CompilerOptions(scheduler=policy)
        )
        kwargs = (
            {"devices": 4, "placement": "round_robin"} if devices == 4 else {}
        )
        session = model.session(flush_policy="size", flush_args={"n": len(instances)}, **kwargs)
        session.engine.runtime.specializer.crosscheck = True
        for round_no in range(5):
            handles = [session.submit(i) for i in instances]
            session.flush()
            assert all(
                exact_equal(r, h.result())
                for r, h in zip(reference, handles)
            ), f"{model_name}/{policy}/dev{devices} round {round_no}"
        spec = session.last_stats.specialize
        assert spec["promotions"] > 0, "steady-state rounds must promote"
