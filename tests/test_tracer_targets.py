"""The benchmark tracer's targets resolve against the program.

``e2ebench/tracer.py`` wraps named functions of every layer and reads a few
stats names when a traced process ends, and it resolves all of them
strictly: a renamed or deleted name breaks the benchmark.  These tests load
the tracer read-only, the way ``tests/test_bench_ledger.py`` loads
``benchmarks/common.py``, and resolve every name without installing a
wrapper.
"""

import importlib.util
import inspect
import os

import pytest

from repro.sim import (
    attach_shared_store,
    clear_level_cache,
    detach_shared_store,
)

TRACER_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                           "e2ebench", "tracer.py")


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("e2ebench_tracer",
                                                  TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves_to_a_callable(tracer):
    for module_name, path, _, layer in tracer.TARGETS:
        owner, attr = tracer._resolve(module_name, path)
        assert callable(getattr(owner, attr)), (module_name, path)
        assert layer in tracer.LAYERS, (module_name, path)
    from repro.service.api import ServiceAPI
    assert callable(ServiceAPI.handle)


def test_generator_targets_are_generator_functions(tracer):
    paths = {path: module_name for module_name, path, _, _ in tracer.TARGETS}
    for path in tracer.GENERATORS:
        owner, attr = tracer._resolve(paths[path], path)
        assert inspect.isgeneratorfunction(getattr(owner, attr)), path


def test_finish_reads_the_stats_it_names(tracer, tmp_path):
    from repro.service import SweepService
    clear_level_cache()
    attach_shared_store(str(tmp_path / "store"))
    service = SweepService(str(tmp_path / "daemon"))     # never started
    try:
        run = tracer.Tracer()
        tracer.finish(run, service)
    finally:
        service.journal.close()
        detach_shared_store()
        clear_level_cache()
    assert {"sim.level_cache.hits", "sim.level_cache.lookups",
            "sim.shared_store.loads", "sim.shared_store.load_hits",
            "service.journal.fsyncs"} <= set(run.counters)
