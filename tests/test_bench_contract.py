"""Tier-1 guard for the wall-clock benchmark's patch table.

``bench/trace.py`` wraps the calls into every layer of ``repro`` by name
(``DeviceSimulator.launch``, each placement class's ``place_round``,
``serve.session.materialize_value`` ...).  Renaming or deleting one of them
breaks the benchmark, and only the slow ``bench/tests`` smoke run would
notice; installing and removing the wrappers here catches it in tier-1.
"""

from bench.trace import Tracer, install_layer_boundaries
from repro.runtime.device import DeviceSimulator


def test_every_layer_boundary_installs_and_uninstalls():
    launch = DeviceSimulator.launch
    tracer = Tracer()
    try:
        install_layer_boundaries(tracer, {}, [])
        installed = len(tracer._patches)
        assert DeviceSimulator.launch is not launch
    finally:
        tracer.uninstall()
    assert installed > 30
    assert DeviceSimulator.launch is launch
    assert not tracer.enabled
