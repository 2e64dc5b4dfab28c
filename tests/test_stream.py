"""trace.TableStream: a forked child writes a table's CSV while its rows
are published, and the bytes are those of write_table."""

import os
from dataclasses import fields
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flowgate.trace as trace_module
from flowgate.detector import Scores
from flowgate.trace import TableStream, twin_path, write_table
from test_trace import _column, table_class
from test_forks import assert_no_child_left, cpus


def stream(path, table, cuts=()):
    """Publish table in the parts that cuts (sorted row numbers) make, then
    close the stream; returns what close returns."""
    bounds = [0, *cuts, len(table)]
    with TableStream(path, type(table), len(table)) as s:
        for a, b in zip(bounds, bounds[1:]):
            s.publish(table.take(np.arange(a, b)))
        return s.close()


def columns(table):
    return [getattr(table, f.name) for f in fields(table)]


def written(path):
    return path.read_bytes(), twin_path(path).read_bytes()


def scores(n=40):
    rng = np.random.default_rng(11)
    e = rng.random(n) * 4
    return Scores(np.arange(n) % 7, np.arange(n) // 7, e, e / 3, -e,
                  np.floor(e * 1e16), e * 5e-324, e > 1, e > 3, e)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sampled_from(["d", "r", ".17g"]), min_size=1, max_size=4),
       st.integers(0, 30), st.integers(1, 8), st.sampled_from([1, 2]),
       st.data())
def test_stream_writes_the_bytes_of_write_table(tmp_path_factory, convs, n,
                                                block, n_cpus, data):
    # columns of ints, bools and floats (-0.0, subnormals, whole values at
    # and above 1e16 among them), published at random rows, some parts
    # empty, formatted in blocks of `block` rows
    cols = [data.draw(_column(conv, n)) for conv in convs]
    table = table_class(convs, [c.dtype for c in cols])(*cols)
    cuts = sorted(data.draw(st.lists(st.integers(0, n), max_size=6)))
    d = tmp_path_factory.mktemp("stream")
    with mock.patch.object(trace_module, "_WRITE_BLOCK", block), \
            mock.patch.object(os, "sched_getaffinity",
                              lambda pid: set(range(n_cpus))):
        write_table(d / "table.csv", table)
        back = stream(d / "streamed.csv", table, cuts)
        with open(d / "split", "wb") as fh:  # the child's calls at cuts
            text = trace_module._CsvText(fh, table)
            bounds = [0, *cuts, n]
            for a, b in zip(bounds, bounds[1:]):
                text.rows(a, b)
    assert [c.tobytes() for c in columns(back)] == [
        c.tobytes() for c in columns(table)]
    assert written(d / "streamed.csv") == written(d / "table.csv")
    assert (d / "split").read_bytes() == (d / "table.csv").read_bytes()
    assert sorted(p.name for p in d.iterdir()) == [
        "split", "streamed.csv", "streamed.csv.cols", "table.csv",
        "table.csv.cols"]
    assert_no_child_left()


@pytest.mark.parametrize("n_cpus, n_forks", [(1, 0), (2, 1), (4, 1)])
def test_one_cpu_forks_nothing(monkeypatch, tmp_path, n_cpus, n_forks):
    table = scores()
    write_table(tmp_path / "table.csv", table)
    forks = cpus(monkeypatch, n_cpus)
    stream(tmp_path / "streamed.csv", table, [5, 5, 33])
    assert len(forks) == n_forks
    assert written(tmp_path / "streamed.csv") == written(
        tmp_path / "table.csv")
    assert_no_child_left()


@pytest.mark.parametrize("when", ["at its first rows", "after the last row"])
def test_a_child_that_fails_is_written_again(monkeypatch, tmp_path, when):
    table = scores()
    write_table(tmp_path / "table.csv", table)
    parent = os.getpid()
    rows = trace_module._CsvText.rows

    def rows_or_error(text, start, stop):
        if os.getpid() != parent and (when == "at its first rows"
                                      or stop == len(table)):
            raise OSError("no space left")
        return rows(text, start, stop)

    monkeypatch.setattr(trace_module._CsvText, "rows", rows_or_error)
    forks = cpus(monkeypatch, 2)
    path = tmp_path / "streamed.csv"
    with TableStream(path, Scores, len(table)) as s:
        s.publish(table.take(np.arange(10)))
        if when == "at its first rows":
            # the child has exited (unreaped) before the next publish, so
            # that publish finds the pipe broken
            os.waitid(os.P_PID, forks[0], os.WEXITED | os.WNOWAIT)
        s.publish(table.take(np.arange(10, len(table))))
        assert s.close() == table
    assert len(forks) == 1
    assert written(path) == written(tmp_path / "table.csv")
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "streamed.csv", "streamed.csv.cols", "table.csv", "table.csv.cols"]
    assert_no_child_left()


def test_an_error_while_publishing_reaps_the_child(monkeypatch, tmp_path):
    table = scores()
    forks = cpus(monkeypatch, 2)
    with pytest.raises(FloatingPointError, match="window 3"):
        with TableStream(tmp_path / "scores.csv", Scores, len(table)) as s:
            s.publish(table.take(np.arange(21)))
            raise FloatingPointError("window 3")
    assert len(forks) == 1
    assert_no_child_left()
    assert list(tmp_path.iterdir()) == []


def test_close_refuses_a_table_not_all_published(monkeypatch, tmp_path):
    table = scores()
    cpus(monkeypatch, 2)
    with TableStream(tmp_path / "scores.csv", Scores, len(table)) as s:
        s.publish(table.take(np.arange(39)))
        with pytest.raises(ValueError, match="39 of 40 rows published"):
            s.close()
    assert_no_child_left()
    assert list(tmp_path.iterdir()) == []


def test_write_table_leaves_no_part_of_a_table(monkeypatch, tmp_path):
    # a CSV is moved into place whole: a write that fails keeps the file
    # that was there and leaves no temporary file
    path = tmp_path / "scores.csv"
    write_table(path, scores(3))
    before = path.read_bytes()

    def full(*args):
        raise OSError("no space left")

    monkeypatch.setattr(trace_module._CsvText, "rows", full)
    with pytest.raises(OSError, match="no space left"):
        write_table(path, scores())
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "scores.csv", "scores.csv.cols"]
