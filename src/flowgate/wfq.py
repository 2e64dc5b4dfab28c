"""Weighted fair queueing replay with time-varying per-flow weights.

Each clique is an independent non-preemptive server of fixed capacity.
Packets get a virtual finish tag at arrival:

    F = max(V(arrival), F_prev_of_flow) + len / (weight * capacity)

and the server always picks the queued packet with the smallest tag. V is the
self-clocked virtual time: the tag of the packet most recently put into
service (0 before any service). Weight changes apply to packets tagged after
the change instant; already-tagged packets keep their tags.

Delay of a packet is the wait until service start; the completion instant is
also logged. Buffers are unbounded and the server is work-conserving.

Kernel layout: one kernel serves every clique. For a clique's packets, in
arrival order, it computes the tag increments len / (weight * capacity),
with weights from WeightSchedule.weights, and the service times once, as
numpy arrays; the heap loop then runs over plain Python floats and serves
tag ties in arrival order. A packet that finds the heap empty, with no
other arrival by the time the server frees, is served at once without the
heap, which would pop that same packet. Cliques are independent servers,
so replay deals them into one share per CPU it may run on, largest clique
first: this process serves one share and a forked child serves each other
one, writing its dequeue instants into a shared anonymous mapping. Outputs
do not depend on the share count. Precondition: arrival times are
nondecreasing within each clique (worlds.check_trace refuses a trace.csv
that is not sorted); otherwise the loop gives wrong delays without an
error.
"""

from __future__ import annotations

import heapq
import math
import mmap
import os
from dataclasses import dataclass

import numpy as np

from flowgate.detector import calibrate_threshold
from flowgate.trace import BENIGN, Trace, read_csv, write_csv


@dataclass(frozen=True)
class GateConfig:
    """Reversible weight gate: drop to omega_minus for at least t_g_s."""

    omega_0: float = 1.0
    omega_minus: float = 0.05
    t_g_s: float = 30.0

    def validate(self) -> None:
        if not (0.0 < self.omega_minus < self.omega_0):
            raise ValueError("need 0 < omega_minus < omega_0")
        if self.t_g_s < 0:
            raise ValueError("t_g_s must be nonnegative")


class WeightSchedule:
    """Per-flow piecewise-constant weights over microsecond time."""

    def __init__(self, default_weight: float = 1.0):
        self.default_weight = float(default_weight)
        self._entries: dict[int, list[tuple[int, float]]] = {}

    def set_entries(self, flow_id: int, entries: list[tuple[int, float]]) -> None:
        """Entries are (from_us, weight), sorted, first at 0."""
        if not entries or entries[0][0] != 0:
            raise ValueError("schedule for a flow must start at t=0")
        froms = [e[0] for e in entries]
        if froms != sorted(froms):
            raise ValueError("schedule entries must be sorted by from_us")
        if any(w <= 0 for _, w in entries):
            raise ValueError("weights must be positive")
        self._entries[flow_id] = [(int(t), float(w)) for t, w in entries]

    def entries(self, flow_id: int) -> list[tuple[int, float]]:
        return self._entries.get(flow_id, [(0, self.default_weight)])

    def weights(self, flow_id, t_us) -> np.ndarray:
        """Weight in force for each packet (flow_id[k], t_us[k]).

        That is the last entry of the flow with from_us <= t_us, so of two
        entries at one instant the later one holds (a time before 0 takes
        the first entry).
        """
        flow_id = np.asarray(flow_id, dtype=np.int64)
        t_us = np.asarray(t_us, dtype=np.int64)
        w = np.full(t_us.shape, self.default_weight)
        for f in np.unique(flow_id).tolist():
            ent = self._entries.get(f)
            if ent is None:
                continue
            m = flow_id == f
            froms, ws = zip(*ent)
            pos = np.searchsorted(froms, t_us[m], side="right") - 1
            w[m] = np.asarray(ws)[pos.clip(0)]
        return w

    def flows(self) -> list[int]:
        return sorted(self._entries)


class QueueEventLog:
    """Per-packet service log, aligned with the replayed trace's packet order."""

    __slots__ = ("flow_id", "clique_id", "enqueue_us", "dequeue_us",
                 "complete_us", "benign")

    def __init__(self, flow_id, clique_id, enqueue_us, dequeue_us, complete_us, benign):
        self.flow_id = np.asarray(flow_id, dtype=np.int64)
        self.clique_id = np.asarray(clique_id, dtype=np.int64)
        self.enqueue_us = np.asarray(enqueue_us, dtype=np.int64)
        self.dequeue_us = np.asarray(dequeue_us, dtype=np.float64)
        self.complete_us = np.asarray(complete_us, dtype=np.float64)
        self.benign = np.asarray(benign, dtype=bool)

    @property
    def n(self) -> int:
        return int(self.flow_id.shape[0])

    def delays_us(self) -> np.ndarray:
        return self.dequeue_us - self.enqueue_us


def replay(trace: Trace, capacity_bps: float,
           schedule: WeightSchedule | None = None) -> QueueEventLog:
    """Replay a trace through one WFQ server per clique.

    capacity_bps is in bytes per second. Returns a log whose rows align with
    the trace's packet order. The cliques are served in shares, one per
    CPU this process may run on (see _serve_shares).
    """
    if capacity_bps <= 0:
        raise ValueError("capacity must be positive")
    if schedule is None:
        schedule = WeightSchedule()
    ts = trace.ts_us
    fid = trace.flow_id
    ln = trace.len_bytes
    cq = trace.clique_id
    cap = float(capacity_bps)

    cliques = [np.flatnonzero(cq == c) for c in np.unique(cq)]
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else 1)
    n_shares = max(1, min(cpus, len(cliques)))
    # a shared anonymous mapping, so that a forked share's writes reach it
    dequeue = (np.frombuffer(mmap.mmap(-1, 8 * trace.n_packets), np.float64)
               if n_shares > 1 else np.empty(trace.n_packets))

    def serve(share):
        for idx in share:
            dequeue[idx] = _replay_clique(ts[idx], fid[idx], ln[idx], cap,
                                          schedule)

    if not _serve_shares(_lpt_shares(cliques, n_shares), serve):
        serve(cliques)  # in clique order: raises what a serial replay raises
    # the kernel advanced t_free by these same additions, so completions
    # are exact
    complete = dequeue + ln * (1e6 / cap)
    benign = np.isin(fid, [f for f, info in trace.flow_table.items()
                           if info.label == BENIGN])
    return QueueEventLog(fid, cq, ts, dequeue, complete, benign)


def _lpt_shares(cliques: list[np.ndarray], n_shares: int) -> list[list]:
    """Cliques dealt into n_shares shares, largest first, each to the share
    with the fewest packets so far (LPT). Share 0 holds the largest clique."""
    shares: list[list] = [[] for _ in range(n_shares)]
    load = [0] * n_shares
    for idx in sorted(cliques, key=len, reverse=True):
        k = load.index(min(load))
        shares[k].append(idx)
        load[k] += len(idx)
    return shares


def _serve_shares(shares: list[list], serve) -> bool:
    """serve(share) for every share, at once: shares[0] in this process and
    each other one in a forked child. False if any share failed.

    A child leaves only through os._exit, so it runs no exit handler and
    flushes no inherited stdio buffer. Every child is reaped before this
    returns or raises.
    """
    pids = []
    served = True
    try:
        for share in shares[1:]:
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    serve(share)
                    code = 0
                finally:
                    os._exit(code)
            pids.append(pid)
        serve(shares[0])
    except Exception:
        served = False
    finally:
        for pid in pids:
            if os.waitpid(pid, 0)[1] != 0:
                served = False
    return served


def _replay_clique(t, f, l, cap, schedule) -> np.ndarray:
    """SCFQ service of one clique's packets, given in arrival order.

    Returns the dequeue instants aligned with the input.
    """
    inc_us = l / (schedule.weights(f, t) * cap)
    svc_us = l * (1e6 / cap)  # service microseconds
    dequeue = np.empty(t.shape)
    # memoryviews read and write plain Python floats without a per-packet
    # list of float objects; microseconds stay exact in doubles below 2**53.
    # The +inf after the last arrival ends every scan for arrivals.
    t, inc, svc = map(memoryview, (np.append(t.astype(np.float64), np.inf),
                                   inc_us, svc_us))
    out = memoryview(dequeue)
    f = f.tolist()
    n = len(f)
    heap: list[tuple[float, int]] = []  # (tag, arrival rank): ties go FIFO
    # local names: the loop below runs once per packet
    push, pop = heapq.heappush, heapq.heappop
    last_finish: dict[int, float] = {}
    prev_finish = last_finish.get
    virtual = 0.0
    t_free = 0.0
    i = 0
    while i < n or heap:
        if not heap:
            if t[i] > t_free:
                t_free = t[i]
            if t[i + 1] > t_free:
                # packet i waits alone: the heap would pop it at once
                prev = prev_finish(f[i], 0.0)
                virtual = (virtual if virtual >= prev else prev) + inc[i]
                last_finish[f[i]] = virtual
                out[i] = t_free
                t_free += svc[i]
                i += 1
                continue
        while t[i] <= t_free:
            prev = prev_finish(f[i], 0.0)
            tag = (virtual if virtual >= prev else prev) + inc[i]
            last_finish[f[i]] = tag
            push(heap, (tag, i))
            i += 1
        virtual, k = pop(heap)
        out[k] = t_free
        t_free += svc[k]
    return dequeue


def gate_controller(actionable: dict[int, np.ndarray], config: GateConfig,
                    window_us: int) -> WeightSchedule:
    """Turn per-flow actionable flags into a weight schedule.

    actionable maps flow_id to a boolean array indexed by window. The gate
    drops the flow's weight to omega_minus at the start of the first flagged
    window and holds it until max(flag-clear time, activation + t_g);
    re-activation restarts the quarantine clock, overlapping spans merge.
    """
    config.validate()
    sched = WeightSchedule(default_weight=config.omega_0)
    t_g_us = config.t_g_s * 1e6
    for flow_id in sorted(actionable):
        z = np.asarray(actionable[flow_id], dtype=bool)
        spans = []
        for start_w, end_w in _runs(z):
            start_us = start_w * window_us
            clear_us = (end_w + 1) * window_us
            release_us = max(float(clear_us), start_us + t_g_us)
            spans.append((start_us, release_us))
        merged = []
        for s, e in spans:
            if merged and s <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], e))
            else:
                merged.append((s, e))
        entries = [(0, config.omega_0)]
        for s, e in merged:
            if s == 0:
                entries[0] = (0, config.omega_minus)
            else:
                entries.append((int(s), config.omega_minus))
            entries.append((int(math.ceil(e)), config.omega_0))
        sched.set_entries(flow_id, entries)
    return sched


def _runs(z: np.ndarray):
    """Maximal runs of True as (start, end) inclusive window indices."""
    if z.size == 0:
        return
    padded = np.concatenate([[False], z, [False]])
    d = np.diff(padded.astype(np.int8))
    starts = np.flatnonzero(d == 1)
    ends = np.flatnonzero(d == -1) - 1
    for s, e in zip(starts, ends):
        yield int(s), int(e)


def delay_percentile(log: QueueEventLog, pct: float,
                     benign_only: bool = False,
                     clique_id: int | None = None) -> float:
    """Nearest-rank percentile of per-packet delay (microseconds)."""
    if not (0.0 < pct <= 100.0):
        raise ValueError("pct must be in (0, 100]")
    mask = np.ones(log.n, dtype=bool)
    if benign_only:
        mask &= log.benign
    if clique_id is not None:
        mask &= log.clique_id == clique_id
    d = log.delays_us()[mask]
    if d.size == 0:
        raise ValueError("no packets match the filter")
    return calibrate_threshold(d, pct / 100.0)


def clique_mean_delay(log: QueueEventLog, clique_id: int) -> float:
    """Mean packet delay of one clique, in seconds."""
    mask = log.clique_id == clique_id
    if not mask.any():
        raise ValueError(f"no packets in clique {clique_id}")
    return float(log.delays_us()[mask].mean()) * 1e-6


# ---------------------------------------------------------------------------
# On-disk formats

QUEUE_LOG_HEADER = "flow_id,clique_id,enqueue_us,dequeue_us,complete_us,benign"
SCHEDULE_HEADER = "flow_id,from_us,weight"


def write_queue_log(path, log: QueueEventLog) -> None:
    write_csv(path, QUEUE_LOG_HEADER, "%d,%d,%d,%.17g,%.17g,%d\n",
              (log.flow_id, log.clique_id, log.enqueue_us, log.dequeue_us,
               log.complete_us, log.benign))


def read_queue_log(path) -> QueueEventLog:
    """Load a queue log, refusing what read_csv refuses (ids and enqueue_us
    are integers, benign a flag)."""
    raw = read_csv(path, QUEUE_LOG_HEADER, n_ints=3, flags=(5,))
    return QueueEventLog(raw[:, 0], raw[:, 1], raw[:, 2], raw[:, 3],
                         raw[:, 4], raw[:, 5] == 1)


def write_schedule(path, schedule: WeightSchedule) -> None:
    rows = np.array([(f, t, w) for f in schedule.flows()
                     for t, w in schedule.entries(f)],
                    dtype=[("f", np.int64), ("t", np.int64), ("w", np.float64)])
    write_csv(path, SCHEDULE_HEADER, "%d,%d,%r\n",
              (rows["f"], rows["t"], rows["w"]))
