"""forks.deal: sized, independent jobs dealt largest first across CPUs, this
process serving one share and a forked child each other one, with results
that do not depend on the share count."""

import os
from functools import partial

import numpy as np
import pytest

from flowgate import forks
from flowgate.forks import deal


def cpus(monkeypatch, n):
    """Let the code under test see n CPUs, and count the children it
    forks."""
    forks_made = []
    fork = os.fork

    def counted_fork():
        pid = fork()
        if pid:
            forks_made.append(pid)
        return pid

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
    monkeypatch.setattr(os, "fork", counted_fork)
    return forks_made


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_shares_are_balanced_largest_first():
    sizes = [90_054, 10_375, 56_602, 56_601, 56_601]
    assert forks._lpt_shares(sizes, 2) == [[0, 4], [2, 3, 1]]
    assert forks._lpt_shares(sizes[:1], 1) == [[0]]
    # equal sizes keep job order
    assert forks._lpt_shares([5, 5, 5], 2) == [[0, 2], [1]]


def ramp(k, width):
    """Job k of the tests: width floats that name it."""
    return np.arange(width) + 1000.0 * k


WIDTHS = [3, 1, 7, 0, 2, 5]


def ramps():
    return [partial(ramp, k, w) for k, w in enumerate(WIDTHS)]


# every job's results, one after another in job order
RAMPS = np.concatenate([ramp(k, w) for k, w in enumerate(WIDTHS)]).tolist()


@pytest.mark.parametrize("n_cpus, n_forks", [(1, 0), (2, 1), (3, 2),
                                             (9, len(WIDTHS) - 1)])
def test_results_come_in_job_order_whatever_the_share_count(
        monkeypatch, n_cpus, n_forks):
    forks_made = cpus(monkeypatch, n_cpus)
    got = deal(ramps(), WIDTHS, WIDTHS)
    assert len(forks_made) == n_forks
    assert got.tolist() == RAMPS
    assert_no_child_left()


@pytest.mark.parametrize("n_cpus", [1, 3])
def test_one_float_per_job_by_default_and_no_job(monkeypatch, n_cpus):
    cpus(monkeypatch, n_cpus)
    got = deal([partial(float, k) for k in range(4)], [1, 4, 2, 3])
    assert got.tolist() == [0.0, 1.0, 2.0, 3.0]
    assert deal([], []).tolist() == []


def failing(bad, only_in_children=False):
    """The ramps, with the jobs in bad raising (only in a forked child if
    only_in_children)."""
    parent = os.getpid()

    def job(k, w):
        if k in bad and not (only_in_children and os.getpid() == parent):
            raise ValueError(f"job {k} failed")
        return ramp(k, w)

    return [partial(job, k, w) for k, w in enumerate(WIDTHS)]


@pytest.mark.parametrize("bad", [{1}, {0, 2}, {4, 5}])
def test_error_in_a_share_is_the_serial_error(monkeypatch, bad):
    cpus(monkeypatch, 1)
    with pytest.raises(ValueError) as serial:
        deal(failing(bad), WIDTHS, WIDTHS)
    forks_made = cpus(monkeypatch, 3)
    with pytest.raises(ValueError) as shared:
        deal(failing(bad), WIDTHS, WIDTHS)
    assert len(forks_made) == 2
    assert str(shared.value) == str(serial.value) == f"job {min(bad)} failed"
    assert_no_child_left()


def test_jobs_of_a_dead_child_are_run_again(monkeypatch):
    # job 2 is the largest, so this process serves it and the children
    # serve the rest; every child dies
    forks_made = cpus(monkeypatch, 3)
    got = deal(failing(set(range(len(WIDTHS))), only_in_children=True),
               WIDTHS, WIDTHS)
    assert len(forks_made) == 2
    assert got.tolist() == RAMPS
    assert_no_child_left()
