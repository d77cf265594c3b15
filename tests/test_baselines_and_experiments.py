"""Tests for the DyNet / eager / Cortex baselines, the auto-scheduler, the
data generators, utilities, and smoke tests of the experiment drivers."""

import numpy as np
import pytest

from repro import CompilerOptions, compile_model, reference_run
from repro.baselines import (
    CortexModel,
    DyNetImprovements,
    compile_dynet,
    compile_eager,
)
from repro.data import (
    coin_run_lists,
    random_matrix_sequence,
    random_sequences,
    random_treebank,
)
from repro.kernels.autoscheduler import (
    allocate_trials,
    auto_schedule,
    static_frequency_estimate,
    tune_kernel,
)
from repro.models import birnn, mvrnn, treelstm
from repro.models import MODEL_MODULES
from repro.utils import flatten_arrays, values_allclose
from tests.conftest import build_listing1_rnn, rnn_instances

BATCH = 3


@pytest.fixture(scope="module")
def small_models():
    out = {}
    for name in ("treelstm", "mvrnn", "drnn", "stackrnn"):
        module = MODEL_MODULES[name]
        mod, params, size = module.build_for("test")
        instances = module.make_batch(mod, size, BATCH, seed=5)
        reference = reference_run(mod, params, instances)
        out[name] = (mod, params, size, instances, reference)
    return out


class TestDyNetBaseline:
    @pytest.mark.parametrize("model_name", ["treelstm", "mvrnn", "drnn", "stackrnn"])
    @pytest.mark.parametrize("scheduler", ["agenda", "depth"])
    def test_dynet_matches_reference(self, small_models, model_name, scheduler):
        mod, params, _, instances, reference = small_models[model_name]
        model = compile_dynet(mod, params, scheduler_kind=scheduler)
        outs, _ = model.run(instances)
        assert all(values_allclose(r, o) for r, o in zip(reference, outs))

    def test_improved_heuristics_match_reference(self, small_models):
        mod, params, _, instances, reference = small_models["mvrnn"]
        model = compile_dynet(mod, params, DyNetImprovements.improved())
        outs, _ = model.run(instances)
        assert all(values_allclose(r, o) for r, o in zip(reference, outs))

    def test_mvrnn_heuristic_prevents_matmul_batching(self, small_models):
        """Stock DyNet cannot batch the matrix products of intermediate
        activations, so it launches more kernels than DN++."""
        mod, params, _, instances, _ = small_models["mvrnn"]
        stock = compile_dynet(mod, params)
        improved = compile_dynet(mod, params, DyNetImprovements.improved())
        _, stock_stats = stock.run(instances)
        _, improved_stats = improved.run(instances)
        assert improved_stats.kernel_calls < stock_stats.kernel_calls

    def test_acrobat_beats_dynet_on_treelstm(self, small_models):
        mod, params, _, instances, _ = small_models["treelstm"]
        dynet = compile_dynet(mod, params)
        _, dy = dynet.run(instances)
        acro = compile_model(mod, params, CompilerOptions())
        _, ab = acro.run(instances)
        assert ab.latency_ms < dy.latency_ms
        assert ab.kernel_calls < dy.kernel_calls

    def test_dynet_scheduling_cost_is_higher_than_acrobat(self, small_models):
        mod, params, _, instances, _ = small_models["treelstm"]
        dynet = compile_dynet(mod, params)
        _, dy = dynet.run(instances)
        acro = compile_model(mod, params, CompilerOptions())
        _, ab = acro.run(instances)
        assert ab.host_ms["scheduling"] < dy.host_ms["scheduling"]

    def test_invalid_scheduler_kind(self, small_models):
        mod, params, _, _, _ = small_models["treelstm"]
        model = compile_dynet(mod, params, scheduler_kind="agenda")
        with pytest.raises(ValueError):
            model.scheduler_kind = "bogus"
            model.make_engine()


class TestEagerAndCortex:
    def test_eager_matches_reference(self, small_models):
        mod, params, _, instances, reference = small_models["treelstm"]
        model = compile_eager(mod, params)
        outs, stats = model.run(instances)
        assert all(values_allclose(r, o) for r, o in zip(reference, outs))
        assert stats.kernel_calls >= stats.num_dfg_nodes

    def test_cortex_treelstm_matches_reference(self):
        mod, params, size = treelstm.build_for("test")
        trees = random_treebank(BATCH, size.embed, seed=2)
        instances = [treelstm.instance_input(mod, t) for t in trees]
        reference = reference_run(mod, params, instances)
        outs, stats = CortexModel("treelstm", params).run(trees)
        assert all(values_allclose(r, o) for r, o in zip(reference, outs))
        assert stats.kernel_calls < 10 * BATCH  # few, fused launches

    def test_cortex_birnn_matches_reference(self):
        mod, params, size = birnn.build_for("test")
        seqs = random_sequences(BATCH, size.embed, seed=2)
        instances = [birnn.instance_input(mod, s) for s in seqs]
        reference = reference_run(mod, params, instances)
        outs, _ = CortexModel("birnn", params).run(seqs)
        assert all(values_allclose(mod.from_list(r), o) for r, o in zip(reference, outs))

    def test_cortex_mvrnn_charges_extra_copies(self):
        mod, params, size = mvrnn.build_for("test")
        trees = random_treebank(BATCH, size.hidden, seed=2)
        instances = [mvrnn.instance_input(mod, t, seed=i) for i, t in enumerate(trees)]
        outs, stats = CortexModel("mvrnn", params).run(instances)
        assert stats.device["num_memcpy"] >= BATCH  # one copy per leaf at least

    def test_cortex_rejects_unsupported_models(self):
        with pytest.raises(ValueError):
            CortexModel("berxit", {})


class TestAutoScheduler:
    def test_tune_kernel_improves_with_budget(self):
        low = tune_kernel("dense_add_sigmoid", 5)
        high = tune_kernel("dense_add_sigmoid", 500)
        assert 0 < low <= high <= 1.0

    def test_zero_trials_gives_base_quality(self):
        assert tune_kernel("whatever", 0) == pytest.approx(0.45)

    def test_tuning_is_deterministic_per_seed(self):
        assert tune_kernel("k", 50, seed=1) == tune_kernel("k", 50, seed=1)

    def test_allocate_trials_proportional_and_exact(self):
        alloc = allocate_trials(["a", "b"], 100, {"a": 3.0, "b": 1.0})
        assert sum(alloc.values()) == 100
        assert alloc["a"] > alloc["b"]

    def test_static_estimate_is_uniform(self):
        est = static_frequency_estimate(["a", "b", "c"])
        assert set(est.values()) == {1.0}

    def test_auto_schedule_installs_table(self):
        mod, params = build_listing1_rnn()
        instances = rnn_instances(mod, 8, (3, 4))
        compiled = compile_model(mod, params, CompilerOptions())
        result = auto_schedule(compiled, 200, use_pgo=True, sample_instances=instances)
        assert result.used_pgo and sum(result.trials.values()) == 200
        assert compiled.schedule_table
        # tuned schedules must not slow the model down vs the default quality
        assert all(0 < q <= 1.0 for q in result.schedule_table.values())

    def test_pgo_requires_sample_instances(self):
        mod, params = build_listing1_rnn()
        compiled = compile_model(mod, params, CompilerOptions())
        with pytest.raises(ValueError):
            auto_schedule(compiled, 10, use_pgo=True)


class TestDataGenerators:
    def test_treebank_respects_lengths(self):
        trees = random_treebank(4, 8, seed=0, lengths=[5, 6, 7, 8])
        assert [t.num_leaves() for t in trees] == [5, 6, 7, 8]

    def test_treebank_is_seed_deterministic(self):
        a = random_treebank(3, 4, seed=9)
        b = random_treebank(3, 4, seed=9)
        assert [t.num_leaves() for t in a] == [t.num_leaves() for t in b]
        np.testing.assert_allclose(
            flatten_arrays([x.embedding for x in _leaves(a[0])])[0],
            flatten_arrays([x.embedding for x in _leaves(b[0])])[0],
        )

    def test_sequences_shapes(self):
        seqs = random_sequences(3, 16, seed=1, lengths=[2, 3, 4])
        assert [len(s) for s in seqs] == [2, 3, 4]
        assert seqs[0][0].shape == (1, 16)

    def test_matrix_sequences(self):
        mats = random_matrix_sequence(2, 4, 8, seed=0)
        assert len(mats) == 2 and mats[0].shape == (4, 8)

    def test_coin_runs_terminate_with_zero(self):
        runs = coin_run_lists(5, 2, 4, seed=0)
        assert all(r[-1] == 0 and all(c == 1 for c in r[:-1]) for r in runs)
        assert all(2 <= len(r) - 1 <= 4 for r in runs)


class TestUtils:
    def test_values_allclose_nested(self):
        a = [(np.ones(3), 1.0), np.zeros((2, 2))]
        b = [(np.ones(3), 1.0), np.zeros((2, 2))]
        assert values_allclose(a, b)

    def test_values_allclose_detects_mismatch(self):
        assert not values_allclose([np.ones(3)], [np.ones(4)])
        assert not values_allclose((1.0,), (2.0,))
        assert not values_allclose([1.0], 1.0)

    def test_flatten_arrays(self):
        arrays = flatten_arrays([(np.ones(2), [np.zeros(3)]), 4.0])
        assert len(arrays) == 3


class TestExperimentsSmoke:
    def test_table5_rows_have_expected_shape(self):
        from repro.experiments import table5
        from repro.experiments.harness import ExperimentScale

        scale = ExperimentScale(name="tiny", size_names=("small",), batch_sizes=(2,), size_override="test")
        headers, rows = table5.run(scale, models=("treelstm",))
        assert headers[-1] == "speedup"
        assert len(rows) == 1 and rows[0][0] == "treelstm"
        assert rows[0][-1] > 0

    def test_figure6_levels_columns(self):
        from repro.experiments import figure6
        from repro.experiments.harness import ExperimentScale

        scale = ExperimentScale(name="tiny", size_names=("small",), batch_sizes=(2,), size_override="test")
        headers, rows = figure6.run(scale, models=("mvrnn",))
        assert len(headers) == 3 + 6
        assert len(rows) == 1 and all(v > 0 for v in rows[0][3:])

    def test_format_table_renders(self):
        from repro.experiments.harness import format_table

        text = format_table(("a", "b"), [[1, 2.5], ["x", 3.0]], title="T")
        assert "T" in text and "2.50" in text


class TestExperimentsCLI:
    def test_list_prints_every_experiment(self, capsys):
        from repro.experiments import ALL_EXPERIMENTS
        from repro.experiments.__main__ import main

        assert main(["--list"]) == 0
        listed = capsys.readouterr().out.split()
        assert listed == sorted(ALL_EXPERIMENTS)
        assert "sharding" in listed

    def test_unknown_experiment_errors(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["--only", "table99"]) == 2
        assert "table99" in capsys.readouterr().err

    @staticmethod
    def _stub(monkeypatch):
        """Register a stub experiment that records the ``REPRO_BEST_OF`` it
        sees and saves a one-line table, so the CLI is tested without
        running a real one."""
        import os
        import types

        from repro.experiments import ALL_EXPERIMENTS
        from repro.experiments.harness import publish

        seen = []

        def main():
            seen.append(os.environ.get("REPRO_BEST_OF"))
            return publish("stub", "stub table")

        monkeypatch.setitem(ALL_EXPERIMENTS, "stub", types.SimpleNamespace(main=main))
        return seen

    def test_only_runs_named_experiment(self, capsys, tmp_path, monkeypatch):
        from repro.experiments.__main__ import main

        seen = self._stub(monkeypatch)
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        assert main(["--only", "stub"]) == 0
        out = capsys.readouterr().out
        assert "== stub ==" in out
        assert (tmp_path / "stub.txt").read_text() == "stub table\n"
        # only the requested experiment ran
        assert len(seen) == 1
        assert "== table4 ==" not in out

    def test_best_of_default_is_scoped_to_the_invocation(self, tmp_path, monkeypatch):
        """main() measures best-of-3 by default but must not leave
        REPRO_BEST_OF in the process environment (it is also called
        in-process, where a leak would silently slow later callers 3x)."""
        import os

        from repro.experiments.__main__ import main

        seen = self._stub(monkeypatch)
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_BEST_OF", raising=False)
        assert main(["--only", "stub"]) == 0
        assert seen == ["3"]
        assert "REPRO_BEST_OF" not in os.environ
        # an explicit setting is respected and survives the invocation
        monkeypatch.setenv("REPRO_BEST_OF", "1")
        assert main(["--only", "stub"]) == 0
        assert seen == ["3", "1"]
        assert os.environ["REPRO_BEST_OF"] == "1"


def _leaves(tree):
    if tree.is_leaf:
        return [tree]
    return _leaves(tree.left) + _leaves(tree.right)
