"""forks.deal: independent jobs taken largest first by whichever process is
free, this process and a forked child per other CPU, with results that do
not depend on the CPU count."""

import os
import signal
import time
from contextlib import contextmanager, suppress
from functools import partial

import numpy as np
import pytest

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


@contextmanager
def deadline(forks_made, seconds=60):
    """Fail, rather than hang, a deal that does not end within seconds:
    SIGALRM kills the children still unreaped (forks_made, as cpus counts
    them) and raises in this process, and the test sees that it fired."""
    fired = []

    def hung(signum, frame):
        fired.append(signum)
        for pid in forks_made:
            # a pid reaped already may name another process now
            with suppress(ChildProcessError):
                os.waitid(os.P_PID, pid, os.WEXITED | os.WNOHANG | os.WNOWAIT)
                os.kill(pid, signal.SIGKILL)
        raise TimeoutError(f"deal took over {seconds} s")

    before = signal.signal(signal.SIGALRM, hung)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, before)
    assert not fired


def test_each_process_takes_jobs_largest_first_and_each_job_once(
        monkeypatch, tmp_path):
    sizes = [k * 37 % 11 for k in range(40)]  # ties among equal sizes
    claims = tmp_path / "claims"

    def job(k):
        # one append per run of job k: which process ran it, in which order
        fd = os.open(claims, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
        try:
            os.write(fd, f"{os.getpid()} {k}\n".encode())
        finally:
            os.close(fd)
        return float(k)

    forks_made = cpus(monkeypatch, 3)
    with deadline(forks_made):
        got = deal([partial(job, k) for k in range(40)], sizes)
    assert len(forks_made) == 2
    assert got.tolist() == list(range(40))
    ran = [tuple(map(int, line.split()))
           for line in claims.read_text().splitlines()]
    assert sorted(k for _, k in ran) == list(range(40))
    for pid in {pid for pid, _ in ran}:
        mine = [k for p, k in ran if p == pid]
        assert mine == sorted(mine, key=lambda k: (-sizes[k], k))
    assert_no_child_left()


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
    # every job a child takes raises there, so a child that takes any dies
    forks_made = cpus(monkeypatch, 3)
    got = deal(failing(set(range(len(WIDTHS))), only_in_children=True),
               WIDTHS, WIDTHS)
    assert len(forks_made) == 2
    assert got.tolist() == RAMPS
    assert_no_child_left()


def test_child_killed_inside_a_job_leaves_the_serial_results(monkeypatch,
                                                            tmp_path):
    # a child dies by SIGKILL in the first job it takes, so no finally
    # block of its runs; this process holds its own first job until a
    # child has taken one
    parent = os.getpid()
    taken = tmp_path / "taken"

    def job(k, w):
        if os.getpid() != parent:
            taken.touch()
            os.kill(os.getpid(), signal.SIGKILL)
        while not taken.exists():
            time.sleep(0.001)
        return ramp(k, w)

    forks_made = cpus(monkeypatch, 3)
    with deadline(forks_made):
        got = deal([partial(job, k, w) for k, w in enumerate(WIDTHS)],
                   WIDTHS, WIDTHS)
    assert len(forks_made) == 2
    assert got.tolist() == RAMPS
    assert_no_child_left()


@pytest.mark.parametrize("n_cpus", [1, 3])
def test_more_jobs_than_tokens_come_back_in_job_order(monkeypatch, n_cpus):
    # 5,000 jobs are more than one 2-byte token each fits in a pipe's
    # atomic write, so a token stands for a run of jobs; a third of the
    # jobs return nothing
    n = 5_000
    widths = [k % 3 for k in range(n)]
    forks_made = cpus(monkeypatch, n_cpus)
    with deadline(forks_made):
        got = deal([partial(ramp, k, w) for k, w in enumerate(widths)],
                   [k * 7919 % 1000 for k in range(n)], widths)
    assert len(forks_made) == n_cpus - 1
    assert got.tolist() == np.concatenate(
        [ramp(k, w) for k, w in enumerate(widths)]).tolist()
    assert_no_child_left()
