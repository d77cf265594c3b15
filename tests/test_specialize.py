"""Unit tests of the kernel-specialization tier's promotion state machine.

The tier is not wired into the runtime (:mod:`repro.specialize`); these
tests pin the package's own behaviour for as long as it exists, and that it
stays unwired."""

import ast
from pathlib import Path

import repro
from repro import CompilerOptions, compile_model
from repro.models import MODEL_MODULES
from repro.specialize import (
    BUILD,
    COLD,
    DEMOTED,
    PROMOTED,
    SpecializationCache,
)


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


class TestUnwired:
    """The runtime plans and launches every round one way: no module
    outside the package reaches it, and the stats field the wall-clock
    benchmark still reads stays empty."""

    def test_no_runtime_module_imports_the_package(self):
        root = Path(repro.__file__).parent
        importers = []
        for path in sorted(root.rglob("*.py")):
            if "specialize" in path.relative_to(root).parts:
                continue
            package = ".".join(("repro",) + path.relative_to(root).parent.parts)
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    base = package.rsplit(".", node.level - 1)[0] if node.level else ""
                    module = ".".join(p for p in (base, node.module) if p)
                    names = [module] + [f"{module}.{alias.name}" for alias in node.names]
                else:
                    continue
                if any(n == "repro.specialize" or n.startswith("repro.specialize.") for n in names):
                    importers.append(str(path.relative_to(root)))
        assert importers == []

    def test_run_stats_specialize_stays_empty(self):
        module = MODEL_MODULES["treelstm"]
        mod, params, size = module.build_for("test")
        instances = module.make_batch(mod, size, 4, seed=3)
        session = compile_model(mod, params, CompilerOptions()).serve("manual")
        for _ in range(3):
            for inst in instances:
                session.submit(inst)
            session.flush()
            stats = session.last_stats
            assert stats.specialize == {}
