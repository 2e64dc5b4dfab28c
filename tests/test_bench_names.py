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

from flowgate.detector import Scores, read_scores_csv, write_scores_csv
from flowgate.trace import BENIGN, FlowInfo, FlowKey, Trace
from flowgate.wfq import replay
from support import recorded

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


def test_work_counters_read_real_tables(tmp_path):
    # the tracer counts a span's work off its result: packets of a Trace,
    # the rows of a QueueEventLog (its n) and of a Scores table (len)
    flows = {0: FlowInfo(FlowKey("a", "b", 1, 2, 6), "bulk_stream", BENIGN)}
    trace = Trace([0, 10, 20], [0, 0, 0], [100, 100, 100], [0, 0, 0], flows,
                  1, 250_000)
    zero = [0.0, 0.0]
    write_scores_csv(tmp_path / "scores.csv", Scores(
        [0, 0], [0, 1], zero, zero, zero, zero, zero, [0, 0], [0, 0], zero))
    scores = read_scores_csv(tmp_path / "scores.csv",
                             recorded(tmp_path / "scores.csv"))
    assert tracing._packets((), trace) == 3
    assert tracing._replayed((), replay(trace, 1e6)) == 3
    assert tracing._rows_out((), scores) == 2
