"""Benchmark-suite configuration.

Each benchmark regenerates one of the paper's tables/figures at the scale
selected by ``REPRO_SCALE`` (default: ``reduced``) and writes the formatted
table to ``REPRO_RESULTS_DIR``: a per-session temporary directory unless the
caller set it, so a test run leaves the tracked ``benchmarks/results/``
untouched.  Re-record on purpose with
``REPRO_RESULTS_DIR=benchmarks/results`` (or ``python -m repro.experiments
NAME``, which writes there by default).

Latency cells are the best of ``REPRO_BEST_OF`` measurements (default 3
here): host time is real wall-clock time, and on a busy single-CPU machine
a one-off scheduler preemption can inflate an individual measurement
several-fold, flipping the tables' relative comparisons at random.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

os.environ.setdefault("REPRO_BEST_OF", "3")


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
