"""Benchmark-suite configuration.

Each benchmark regenerates one of the paper's tables/figures at the scale
selected by ``REPRO_SCALE`` (default: ``reduced``) and writes the formatted
table to ``REPRO_RESULTS_DIR``: a per-session temporary directory unless the
caller set it, so a test run leaves the tracked ``benchmarks/results/``
untouched.  Re-record on purpose with
``REPRO_RESULTS_DIR=benchmarks/results`` (or ``python -m repro.experiments
NAME``, which writes there by default).

A paper table's test renders and saves it through the same
``PaperTable.publish`` as the CLI, so both write the same file.  Every
latency cell is the best of ``harness.BEST_OF`` (3) runs, measured
round-robin with the other columns of its row: host time is real
wall-clock time, and on a busy machine a one-off preemption can inflate a
single run several-fold.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))


@pytest.fixture(scope="session", autouse=True)
def _results_dir(tmp_path_factory):
    if "REPRO_RESULTS_DIR" in os.environ:
        yield
        return
    os.environ["REPRO_RESULTS_DIR"] = str(tmp_path_factory.mktemp("results"))
    try:
        yield
    finally:
        del os.environ["REPRO_RESULTS_DIR"]
