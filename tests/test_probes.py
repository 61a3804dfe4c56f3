"""Every name the benchmark's tracer probes, counts or reads a cache of
must still exist in greenchar, so that renaming or deleting one fails
here and not only in the slower benchmark self-test."""

import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module_name in tracer.MODULES:
        importlib.import_module(module_name)
    return tracer


tracer = load_tracer()
TARGETS = ([(module, attr) for module, attr, *_ in tracer.PROBES]
           + [(module, attr) for module, attr, _ in tracer.COUNTERS]
           + [(module, attr) for module, attr, _ in tracer.CACHES])


@pytest.mark.parametrize("module_name,attr", TARGETS,
                         ids=[f"{m}.{a}" for m, a in TARGETS])
def test_probe_target_resolves(module_name, attr):
    _, _, target = tracer._resolve(module_name, attr)
    assert callable(target) or isinstance(target, classmethod)


@pytest.mark.parametrize("module_name,attr",
                         [(m, a) for m, a, _ in tracer.CACHES])
def test_cached_target_reports_cache_info(module_name, attr):
    _, _, target = tracer._resolve(module_name, attr)
    assert target.cache_info().currsize >= 0
