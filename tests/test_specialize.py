"""Tests for the shape-keyed kernel-specialization tier: the promotion
state machine, end-to-end reference identity of specialized serving across
scheduler policies / models / device counts, and the tier's accounting."""

import numpy as np
import pytest

from repro import CompilerOptions, compile_model, reference_run
from repro.models import MODEL_MODULES
from repro.specialize import (
    BUILD,
    COLD,
    DEMOTED,
    PROMOTED,
    UNSUPPORTED,
    SpecializationCache,
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

    @classmethod
    def build(cls, *args, **kwargs):
        return cls()


class _UnsupportedEntry:
    @classmethod
    def build(cls, *args, **kwargs):
        return None


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
        cache = SpecializationCache(threshold=3)
        slot = cache.make_slot()
        assert slot.state == COLD
        assert cache.poll(slot) is None
        assert cache.poll(slot) is None
        assert cache.poll(slot) is BUILD  # third launch crosses threshold
        assert cache.misses == 3

    def test_threshold_of_one_builds_immediately(self):
        cache = SpecializationCache(threshold=1)
        slot = cache.make_slot()
        assert cache.poll(slot) is BUILD

    def test_build_promotes_and_counts(self, monkeypatch):
        monkeypatch.setattr("repro.specialize.cache.SpecializedEntry", _FakeEntry)
        cache = SpecializationCache(threshold=1)
        slot = cache.make_slot()
        assert cache.poll(slot) is BUILD
        entry = cache.build_and_install(slot, None, None, None, None, None, None)
        assert entry is not None
        assert slot.state == PROMOTED
        assert cache.promotions == 1 and cache.entries == 1
        assert cache.frozen_bytes == 64.0
        # promoted slots now dispatch through the entry, without misses
        misses_before = cache.misses
        assert cache.poll(slot) is entry
        assert cache.misses == misses_before

    def test_unfreezable_layout_is_terminally_unsupported(self, monkeypatch):
        monkeypatch.setattr(
            "repro.specialize.cache.SpecializedEntry", _UnsupportedEntry
        )
        cache = SpecializationCache(threshold=1)
        slot = cache.make_slot()
        assert cache.poll(slot) is BUILD
        assert cache.build_and_install(slot, None, None, None, None, None, None) is None
        assert slot.state == UNSUPPORTED
        assert cache.unsupported == 1 and cache.entries == 0
        # unsupported is terminal: never BUILD again
        for _ in range(5):
            assert cache.poll(slot) is None
        assert slot.state == UNSUPPORTED

    def test_demotion_is_terminal_and_releases_state(self, monkeypatch):
        monkeypatch.setattr("repro.specialize.cache.SpecializedEntry", _FakeEntry)
        cache = SpecializationCache(threshold=1)
        slot = cache.make_slot()
        cache.poll(slot)
        cache.build_and_install(slot, None, None, None, None, None, None)
        cache.demote(slot)
        assert slot.state == DEMOTED and slot.entry is None
        assert cache.demotions == 1
        assert cache.entries == 0 and cache.frozen_bytes == 0.0
        for _ in range(5):
            assert cache.poll(slot) is None  # never promotes again
        assert slot.state == DEMOTED

    def test_max_entries_caps_new_promotions(self, monkeypatch):
        monkeypatch.setattr("repro.specialize.cache.SpecializedEntry", _FakeEntry)
        cache = SpecializationCache(threshold=1, max_entries=2)
        promoted = []
        for _ in range(2):
            slot = cache.make_slot()
            assert cache.poll(slot) is BUILD
            cache.build_and_install(slot, None, None, None, None, None, None)
            promoted.append(slot)
        capped = cache.make_slot()
        assert cache.poll(capped) is None  # at capacity: no new BUILDs
        assert capped.state == COLD
        # existing entries keep hitting
        assert cache.poll(promoted[0]) is promoted[0].entry

    def test_release_slots_returns_capacity(self, monkeypatch):
        monkeypatch.setattr("repro.specialize.cache.SpecializedEntry", _FakeEntry)
        cache = SpecializationCache(threshold=1, max_entries=1)
        slot = cache.make_slot()
        cache.poll(slot)
        cache.build_and_install(slot, None, None, None, None, None, None)
        assert cache.entries == 1
        cache.release_slots([slot])
        assert cache.entries == 0 and cache.frozen_bytes == 0.0
        # capacity freed: a fresh fingerprint can promote again
        fresh = cache.make_slot()
        assert cache.poll(fresh) is BUILD
        cache.release_slots(None)  # tolerated

    def test_stats_dict_shape(self):
        stats = SpecializationCache().stats_dict()
        assert set(stats) == {
            "promotions",
            "demotions",
            "hits",
            "misses",
            "unsupported",
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
        mod, params, instances, reference = build_setup("treelstm")
        model = compile_model(mod, params, CompilerOptions())
        session = model.session(flush_policy="size", flush_args={"n": len(instances)})
        for _ in range(4):
            for i in instances:
                session.submit(i)
            session.flush()
        spec = session.last_stats.specialize
        assert spec["hits"] > 0 and spec["entries"] > 0
        # break every entry's invariant check: each promoted fingerprint
        # must demote once and the round must still be reference-identical
        from repro.specialize.entry import SpecializedEntry

        monkeypatch.setattr(
            SpecializedEntry, "try_resolve", lambda self, *a, **k: None
        )
        handles = [session.submit(i) for i in instances]
        session.flush()
        assert all(
            exact_equal(r, h.result()) for r, h in zip(reference, handles)
        )
        spec = session.last_stats.specialize
        assert spec["demotions"] > 0
        assert spec["entries"] == 0
        monkeypatch.undo()
        # demotion is permanent: later rounds run generic, hits stop growing
        hits_before = spec["hits"]
        handles = [session.submit(i) for i in instances]
        session.flush()
        assert all(
            exact_equal(r, h.result()) for r, h in zip(reference, handles)
        )
        spec = session.last_stats.specialize
        assert spec["hits"] == hits_before
        assert spec["misses"] > 0

    def test_missized_operand_raises_the_generic_error_on_a_promoted_entry(
        self, monkeypatch
    ):
        """Both tiers run one block program, so a promoted fingerprint makes
        the generic path's batch-dimension and part-count checks too."""
        from repro.kernels import BatchedOperand
        from repro.specialize.entry import SpecializedEntry

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
        for entry, operands in dispatched:
            kernel = entry.kernel
            for inp in kernel.block.inputs:
                op = operands[inp.index]
                if inp.shared or entry.batch_size < 2:
                    continue
                short = (
                    BatchedOperand.batched(op.array[:-1])
                    if op.array is not None
                    else BatchedOperand(shared=False, parts=op.parts[:-1], scattered=op.scattered)
                )
                bad = operands[: inp.index] + [short] + operands[inp.index + 1:]
                expected = f"block {kernel.name}: varying input {inp.name} got"
                with pytest.raises(ValueError, match=expected) as special:
                    entry.execute(bad)
                with pytest.raises(ValueError, match=expected) as generic:
                    kernel.execute_batched(bad, entry.batch_size)
                assert str(special.value) == str(generic.value)
                checked += 1
        assert checked > 0

    def test_knob_disables_tier(self):
        mod, params, instances, _ = build_setup("treelstm")
        model = compile_model(mod, params, CompilerOptions(kernel_specialization=False))
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
            mod, params, CompilerOptions(kernel_specialization=True, scheduler=policy)
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
