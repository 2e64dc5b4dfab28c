"""Work in forked children while this process keeps working.

wfq.replay serves clique shares in children, and trace.TableStream formats
a CSV in one. Both start and reap them here, under one set of rules:

- the CPUs to use come from the affinity mask (cpus);
- a child runs one function and leaves only through os._exit, so it runs
  no exit handler and flushes no stdio buffer it inherited; its exit status
  is 0 when the function returned and 1 when it raised;
- every child is reaped before a Children block returns or raises.
"""

from __future__ import annotations

import os


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
