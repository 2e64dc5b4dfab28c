"""The names the benchmark's tracer wraps still resolve.

perfbench/tracing.py patches flowgate functions and methods by name in a
traced stage process. A refactor that drops or moves one of them breaks
every traced benchmark run; this test finds that in the fast suite. It
reads the tracer's tables and resolves each entry the way `install` does,
without installing any wrapper.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing()


def _class(mod, cls):
    return getattr(importlib.import_module(mod), cls)


@pytest.mark.parametrize("mod, attr", [
    (mod, attr) for mod, attr, *_ in tracing.SPANS + tracing.COUNTED_FUNCTIONS])
def test_module_names_resolve(mod, attr):
    assert callable(getattr(importlib.import_module(mod), attr))


@pytest.mark.parametrize("mod, cls, attr", [
    (mod, cls, attr) for mod, cls, attr, *_ in
    tracing.METHOD_SPANS + tracing.COUNTED])
def test_methods_resolve(mod, cls, attr):
    assert callable(_class(mod, cls).__dict__[attr])


@pytest.mark.parametrize("mod, cls, attr", [
    (mod, cls, attr) for mod, cls, attr, _ in tracing.CLASSMETHOD_SPANS])
def test_classmethods_resolve(mod, cls, attr):
    assert isinstance(_class(mod, cls).__dict__[attr], classmethod)
