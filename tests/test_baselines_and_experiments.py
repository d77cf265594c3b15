"""Tests for the DyNet / eager / Cortex baselines, the data generators,
utilities, and smoke tests of the experiment drivers."""

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
from repro.models import birnn, mvrnn, treelstm
from repro.models import MODEL_MODULES
from repro.utils import flatten_arrays, values_allclose

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

    def test_cortex_kernel_time_pin(self):
        """Cortex's kernels are hand-tuned: its simulator runs them at
        schedule quality 0.97, not the generated kernels' 0.9."""
        mod, params, size = treelstm.build_for("test", seed=0)
        trees = random_treebank(4, size.embed, seed=0)
        _, stats = CortexModel("treelstm", params).run(trees)
        assert stats.kernel_calls == 11
        assert stats.device["kernel_time_us"] == pytest.approx(56.360824742268036, rel=1e-12)

    def test_cortex_rejects_unsupported_models(self):
        with pytest.raises(ValueError):
            CortexModel("berxit", {})


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


def _tiny_scale():
    """One size at the test model sizes, batch 2."""
    from repro.experiments.harness import ExperimentScale

    return ExperimentScale(name="tiny", size_names=("test",), batch_sizes=(2,))


class TestMeasureRow:
    """The one measured-row primitive behind every paper table."""

    @staticmethod
    def _candidate(name, latencies, calls):
        from types import SimpleNamespace

        runs = iter(latencies)

        def run_once():
            calls.append(name)
            return SimpleNamespace(latency_ms=next(runs), name=name)

        return run_once

    def test_candidates_interleave_and_keep_their_fastest_run(self):
        from repro.experiments.harness import BEST_OF, best_of_round_robin

        assert BEST_OF == 3
        calls = []
        best = best_of_round_robin([
            self._candidate("a", [5.0, 3.0, 4.0], calls),
            self._candidate("b", [1.0, 2.0, 9.0], calls),
            self._candidate("c", [7.0, 7.0, 6.0], calls),
        ])
        assert calls == ["a", "b", "c"] * 3
        assert [s.latency_ms for s in best] == [3.0, 1.0, 6.0]

    def test_a_raising_candidate_propagates(self):
        from repro.experiments.harness import best_of_round_robin

        def broken():
            raise RuntimeError("candidate failed")

        calls = []
        with pytest.raises(RuntimeError, match="candidate failed"):
            best_of_round_robin([self._candidate("a", [1.0] * 3, calls), broken])
        assert calls == ["a"]

    def test_a_row_builds_once_and_keeps_each_columns_faster_scheme(self):
        from repro.experiments.harness import measure_row

        calls, built = [], []

        def two_schemes(w):
            built.append((w.model, w.batch, len(w.instances)))
            return {
                "slow": self._candidate("slow", [4.0, 5.0, 6.0], calls),
                "fast": self._candidate("fast", [3.0, 2.0, 9.0], calls),
            }

        def one_scheme(w):
            built.append((w.model, w.batch, len(w.instances)))
            return {"only": self._candidate("only", [8.0, 1.0, 8.0], calls)}

        cells = measure_row("treelstm", "test", 2, [two_schemes, one_scheme])
        assert built == [("treelstm", 2, 2)] * 2
        assert calls == ["slow", "fast", "only"] * 3
        assert [(c.scheme, c.stats.latency_ms) for c in cells] == [("fast", 2.0), ("only", 1.0)]

    def test_harness_columns_measure_real_runs(self):
        from repro.experiments.harness import acrobat, cortex, dynet, eager, measure_row, vm

        cells = measure_row("treelstm", "test", 2, [acrobat(), vm, eager, dynet(), cortex])
        assert [c.scheme for c in cells[:3]] + [cells[4].scheme] == ["acrobat", "vm", "eager", "cortex"]
        assert cells[3].scheme in ("depth", "agenda")
        assert all(c.stats.latency_ms > 0 for c in cells)


class TestExperimentsSmoke:
    def test_table5_rows_have_expected_shape(self):
        from repro.experiments.tables import TABLES

        headers, rows = TABLES["table5"].run(_tiny_scale(), models=("treelstm",))
        assert headers[-1] == "speedup"
        assert len(rows) == 1 and rows[0][0] == "treelstm"
        assert rows[0][-1] > 0

    def test_figure5_rows_follow_the_scale_sweep(self):
        """Figure 5's batch sweep is a field of the scale: the short sweep
        unless a scale names the paper's, whatever the scale is called."""
        from repro.experiments.harness import PAPER, REDUCED
        from repro.experiments.tables import TABLES

        rows = TABLES["figure5"].rows(_tiny_scale(), models=("treelstm",))
        assert [(r.model, r.size, r.batch) for r in rows] == [("treelstm", "test", b) for b in (1, 2, 4, 8, 16)]
        for scale, top in ((REDUCED, 16), (PAPER, 128)):
            rows = TABLES["figure5"].rows(scale, models=("treelstm",))
            assert max(r.batch for r in rows) == top

    def test_figure6_levels_columns(self):
        from repro.experiments.tables import TABLES

        headers, rows = TABLES["figure6"].run(_tiny_scale(), models=("mvrnn",))
        assert len(headers) == 3 + 6
        assert len(rows) == 1 and all(v > 0 for v in rows[0][3:])

    def test_table6_dynet_columns_are_the_scheme_they_name(self):
        """A DyNet column reports whichever scheme won on wall time, so its
        counted cells must be that scheme's: equal to a direct run of it."""
        from repro.experiments.harness import build_model, make_instances
        from repro.experiments.tables import TABLES, breakdown

        # the activities counted on the simulated device, not timed on the host
        counted = ("Memory copy time (ms)", "GPU kernel time (ms)", "#Kernel calls", "#Gather launches")

        headers, rows = TABLES["table6"].run(_tiny_scale())
        by_activity = {row[0]: row[1:] for row in rows}
        assert rows[-1][0] == "DyNet scheme"
        for column, model in ((0, "treelstm"), (2, "birnn")):
            scheme = by_activity["DyNet scheme"][column]
            assert scheme in ("depth", "agenda")
            assert by_activity["DyNet scheme"][column + 1] == "-"
            mod, params, size = build_model(model, "test", 0)
            instances = make_instances(model, mod, size, 2, 0)
            direct = breakdown(compile_dynet(mod, params, scheduler_kind=scheme).run(instances)[1])
            for activity in counted:
                assert by_activity[activity][column] == direct[activity], (model, activity)

    def test_reduced_grid_rows_are_labelled_by_the_size_they_run(self):
        """Every grid row prints the size its model is built at, and no two
        rows measure the same (model, size, batch)."""
        from repro.experiments.harness import REDUCED
        from repro.experiments.tables import TABLES

        for name in ("table4", "table5", "table7", "table8", "figure5", "figure6"):
            rows = TABLES[name].rows(REDUCED)
            assert all(row.key[1] == row.size for row in rows), name
            assert len({(row.model, row.size, row.batch) for row in rows}) == len(rows), name

    @pytest.mark.parametrize("experiment", ["continuous", "generation", "multiloop", "serving", "sharding"])
    def test_a_scale_of_another_name_raises(self, experiment):
        """A serving experiment sizes its trace by the scale's name, and
        raises for a name it has no size for instead of guessing one."""
        from repro.experiments import ALL_EXPERIMENTS
        from repro.experiments.harness import ExperimentScale

        with pytest.raises(KeyError, match="custom"):
            ALL_EXPERIMENTS[experiment].run(ExperimentScale(name="custom"))

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
        assert {"table4", "table8", "figure5", "figure6"} <= set(listed)

    def test_unknown_experiment_errors(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["--only", "table99"]) == 2
        assert "table99" in capsys.readouterr().err

    @staticmethod
    def _stub(monkeypatch):
        """Register a stub paper table: one real treelstm row whose one
        column is a stub, so the CLI runs the spec path end to end without
        measuring a real backend."""
        from types import SimpleNamespace

        from repro.experiments import ALL_EXPERIMENTS
        from repro.experiments.tables import PaperTable, Row

        seen = []

        def column(w):
            def run_once():
                seen.append(w.model)
                return SimpleNamespace(latency_ms=1.5)

            return {"stub": run_once}

        table = PaperTable(
            name="stub",
            title="stub table",
            headers=("model", "stub_ms"),
            rows=lambda scale: [Row(("treelstm",), "treelstm", "test", 1, (column,))],
        )
        monkeypatch.setitem(ALL_EXPERIMENTS, "stub", table)
        return table, seen

    def test_only_runs_named_experiment(self, capsys, tmp_path, monkeypatch):
        from repro.experiments.__main__ import main

        table, seen = self._stub(monkeypatch)
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        assert main(["--only", "stub"]) == 0
        out = capsys.readouterr().out
        assert "== stub ==" in out
        assert (tmp_path / "stub.txt").read_text() == table.render([["treelstm", 1.5]]) + "\n"
        # only the requested experiment ran: its one row, best of 3
        assert seen == ["treelstm"] * 3
        assert "== table4 ==" not in out

    def test_cli_and_benchmark_test_write_the_same_file(self, tmp_path, monkeypatch):
        """From the same measured rows, ``python -m repro.experiments
        table5`` and ``benchmarks/test_table5_dynet_vs_acrobat.py`` write
        byte-identical files."""
        import importlib.util
        import os
        from types import SimpleNamespace

        from repro.experiments import tables
        from repro.experiments.__main__ import main
        from repro.experiments.harness import Cell

        def measure_row(model, size, batch, columns, seed=0):
            return [Cell("stub", SimpleNamespace(latency_ms=float(batch * len(model)))),
                    Cell("stub", SimpleNamespace(latency_ms=float(batch)))]

        monkeypatch.setattr(tables, "measure_row", measure_row)
        cli_dir, bench_dir = tmp_path / "cli", tmp_path / "bench"
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(cli_dir))
        assert main(["table5"]) == 0

        path = os.path.join(os.path.dirname(__file__), "..", "benchmarks", "test_table5_dynet_vs_acrobat.py")
        spec = importlib.util.spec_from_file_location("bench_table5", path)
        bench = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench)
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(bench_dir))
        stub = SimpleNamespace(pedantic=lambda fn, args=(), kwargs=None, **_: fn(*args, **(kwargs or {})))
        bench.test_table5_dynet_vs_acrobat(stub)

        cli_text = (cli_dir / "table5.txt").read_text()
        assert cli_text == (bench_dir / "table5.txt").read_text()
        assert cli_text.startswith("Table 5: DyNet vs ACROBAT (ms)\n")
        assert "Geometric-mean speedup over DyNet" in cli_text


def _leaves(tree):
    if tree.is_leaf:
        return [tree]
    return _leaves(tree.left) + _leaves(tree.right)
