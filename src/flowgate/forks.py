"""Work in forked children while this process keeps working.

deal runs sized, independent jobs on every CPU; its users are the SCFQ
replays of wfq.replay, worlds.audit_budgets and worlds.enforce_contention.
trace.TableStream formats a CSV in one child. Both fork under one set of
rules:

- the CPUs to use come from the affinity mask (cpus); on one, nothing forks;
- a child runs one function and leaves only through os._exit, so it runs
  no exit handler and flushes no stdio buffer it inherited; its exit status
  is 0 when the function returned and 1 when it raised;
- every child is reaped before a Children block returns or raises.
"""

from __future__ import annotations

import mmap
import os
from functools import partial

import numpy as np


def cpus() -> int:
    """The CPUs this process may run on: those of its affinity mask, or 1
    where the platform has none."""
    return (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else 1)


class Children:
    """The children this process forked, each calling one function. Use in
    a with block, which reaps every child still running when it ends."""

    def __init__(self):
        self._pids: list[int] = []

    def __enter__(self) -> Children:
        return self

    def __exit__(self, *exc) -> None:
        self.reap()

    def fork(self, job) -> bool:
        """Call job() in a new child. False if no child could be forked."""
        try:
            pid = os.fork()
        except OSError:
            return False
        if pid == 0:
            code = 1
            try:
                job()
                code = 0
            finally:
                os._exit(code)
        self._pids.append(pid)
        return True

    def reap(self) -> bool:
        """Wait for every child not yet reaped. True if each exited 0."""
        ok = True
        while self._pids:
            ok &= os.waitpid(self._pids[-1], 0)[1] == 0
            self._pids.pop()
        return ok


def deal(jobs, sizes, widths=None) -> np.ndarray:
    """The results of jobs, one after another in job order. Job k is a
    function of no arguments, sharing no state with the others, that
    returns widths[k] float64s (one by default); sizes[k] is its cost.
    The jobs are dealt into one share per CPU, largest first (_lpt_shares):
    this process runs share 0 and a forked child each other one, writing
    into a shared anonymous mapping. If any share fails, every job runs
    again here in job order, so an error is the one a serial run raises."""
    at = np.cumsum([0, *(widths or [1] * len(jobs))]).tolist()
    n_shares = min(cpus(), len(jobs))
    # a shared anonymous mapping, so that a forked share's writes reach it
    out = (np.frombuffer(mmap.mmap(-1, 8 * max(at[-1], 1)), np.float64)
           [:at[-1]] if n_shares > 1 else np.empty(at[-1]))

    def run(share):
        for k in share:
            out[at[k]:at[k + 1]] = jobs[k]()

    if n_shares < 2 or not _serve_shares(_lpt_shares(sizes, n_shares), run):
        run(range(len(jobs)))
    return out


def _lpt_shares(sizes, n_shares: int) -> list[list[int]]:
    """Job indices dealt into n_shares shares, largest size first (ties in
    job order), each to the share with the least size so far (LPT list
    scheduling, Graham 1969). Share 0 holds the largest job."""
    shares: list[list[int]] = [[] for _ in range(n_shares)]
    load = [0] * n_shares
    for k in sorted(range(len(sizes)), key=sizes.__getitem__, reverse=True):
        s = load.index(min(load))
        shares[s].append(k)
        load[s] += sizes[k]
    return shares


def _serve_shares(shares: list[list], serve) -> bool:
    """serve(share) for every share, at once: shares[0] in this process and
    each other one in a forked child (Children). False if any share
    failed."""
    with Children() as children:
        forked = [children.fork(partial(serve, share)) for share in shares[1:]]
        try:
            serve(shares[0])
        except Exception:
            return False
        return children.reap() and all(forked)
