"""The benchmark's tracer wraps library names by `getattr` at install time, so
a rename or deletion here breaks the traced benchmark run. Its name tables are
read from `perfbench/tracer.py` without installing anything."""

import importlib
import importlib.util
import os

import pytest

TRACER_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                           "perfbench", "tracer.py")


def traced_entries():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(tracer.PACKAGE, mod, name)
            for table in (tracer.TRACED, tracer.COUNTED)
            for mod, names in table.items() for name in names]


@pytest.mark.parametrize("package,mod,name", traced_entries())
def test_traced_name_resolves(package, mod, name):
    target = importlib.import_module(f"{package}.{mod}")
    for part in name.split("."):
        target = getattr(target, part)
    assert callable(target)
