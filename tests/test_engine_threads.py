"""Engines of one compiled model on different threads.

Every engine of a ``CompiledModel`` shares its kernels and its generated
program.  The program's functions read the runtime (``__rt``) and the fiber
scheduler (``__fibers``) as globals, so each runtime must get a namespace of
its own: with one namespace shared by every engine, a thread that binds its
engine re-routes another thread's ``invoke`` calls into the wrong runtime
mid-build ("operand ... is neither materialized nor planned").
"""

import sys
import threading

import pytest

from repro import compile_model, reference_run
from repro.models import MODEL_MODULES
from repro.utils import values_allclose

#: runs per thread; a switch every few microseconds interleaves every run
RUNS = 12
#: threads, each running its own engine on its own batch
THREADS = 3


@pytest.fixture
def frequent_thread_switches():
    before = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    yield
    sys.setswitchinterval(before)


@pytest.mark.parametrize("name", ["treelstm", "stackrnn"])
def test_engines_on_threads_stay_bitwise_equal_to_the_reference(
    name, frequent_thread_switches
):
    module = MODEL_MODULES[name]
    mod, params, size = module.build_for("test")
    compiled = compile_model(mod, params)
    batches = [module.make_batch(mod, size, 8, seed=11 + k) for k in range(THREADS)]
    references = [reference_run(mod, params, batch) for batch in batches]
    start = threading.Barrier(THREADS)
    failures = []

    def worker(k):
        engine = compiled.make_engine()
        start.wait()
        for run in range(RUNS):
            try:
                outputs, _ = engine.run(batches[k])
            except Exception as exc:
                failures.append((k, run, repr(exc)[:200]))
                continue
            if len(outputs) != len(references[k]) or not all(
                values_allclose(out, ref, atol=0, rtol=0)
                for out, ref in zip(outputs, references[k])
            ):
                failures.append((k, run, "outputs differ from reference_run"))

    threads = [threading.Thread(target=worker, args=(k,)) for k in range(THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
