"""Work in forked children while this process keeps working.

deal runs independent jobs on every CPU, each process taking the next
largest whenever it is free; its users are the SCFQ
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
    returns widths[k] float64s (one by default); sizes[k], in any unit,
    only sets the order in which the jobs are taken, largest first, ties
    in job order. This process and a forked child per other CPU each take
    the next job whenever they are free (_claim), writing into a shared
    anonymous mapping. If any process fails, every job runs again here in
    job order, so an error is the one a serial run raises."""
    at = np.cumsum([0, *(widths or [1] * len(jobs))]).tolist()
    n_procs = min(cpus(), len(jobs))
    # a shared anonymous mapping, so that a forked child's writes reach it
    out = (np.frombuffer(mmap.mmap(-1, 8 * max(at[-1], 1)), np.float64)
           [:at[-1]] if n_procs > 1 else np.empty(at[-1]))

    def run(ks):
        for k in ks:
            out[at[k]:at[k + 1]] = jobs[k]()

    if n_procs < 2 or not _claim(sizes, run, n_procs):
        run(range(len(jobs)))
    return out


def _claim(sizes, run, n_procs: int) -> bool:
    """run(ks) over every job index once, in this process and n_procs - 1
    forked children (Children) at once, each taking the next jobs whenever
    it is free (self-scheduling, Polychronopoulos and Kuck 1987). A pipe
    holds one 2-byte token per run of ceil(n / 2048) jobs, largest first
    (ties in job order), written before any fork in one write of at most
    PIPE_BUF (4,096) bytes, which never blocks; each process reads tokens
    until end of file. False if any process failed."""
    order = sorted(range(len(sizes)), key=sizes.__getitem__, reverse=True)
    step = -(-len(order) // 2048)
    runs = [order[i:i + step] for i in range(0, len(order), step)]
    r, w = os.pipe()
    try:
        with os.fdopen(w, "wb", buffering=0) as tokens:
            tokens.write(np.arange(len(runs), dtype="<u2").tobytes())

        def take():
            while token := os.read(r, 2):
                run(runs[int.from_bytes(token, "little")])

        with Children() as children:
            for _ in range(n_procs - 1):
                children.fork(take)
            try:
                take()
            except Exception:
                return False
            return children.reap()
    finally:
        os.close(r)
