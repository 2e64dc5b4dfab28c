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
with the weights a Schedule sets, and the service times once, as
numpy arrays; the heap loop then runs over plain Python floats and serves
tag ties in arrival order. A packet that finds the heap empty, with no
other arrival by the time the server frees, is served at once without the
heap, which would pop that same packet, and needs no per-flow tag: with
the heap empty every flow's last tag is at most V. Cliques are independent
servers, so replay deals them to forks.deal as one job each, largest
first into one share per CPU it may run on. Outputs do not depend on the
share count. Precondition: arrival times are
nondecreasing within each clique (worlds.check_trace refuses a trace.csv
that is not sorted); otherwise the loop gives wrong delays without an
error.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from flowgate.detector import calibrate_threshold
from flowgate.forks import deal
from flowgate.trace import (
    BENIGN,
    Table,
    Trace,
    column,
    read_table,
    unique,
    write_table,
)


@dataclass(frozen=True)
class GateConfig:
    """Reversible weight gate: drop to omega_minus for at least t_g_s."""

    omega_0: float = 1.0
    omega_minus: float = 0.05
    t_g_s: float = 30.0

    def validate(self, source=None) -> None:
        """Refuse, naming the keys, their values and where source (a dict)
        says each came from, weights that break 0 < omega_minus < omega_0 <
        inf and a t_g_s that is not finite and nonnegative."""
        if not 0.0 < self.omega_minus < self.omega_0 < math.inf:
            keys, problem = ("omega_minus", "omega_0"), (
                f"omega_minus = {self.omega_minus!r} and omega_0 = "
                f"{self.omega_0!r} break 0 < omega_minus < omega_0 < inf")
        elif not 0 <= self.t_g_s < math.inf:
            keys, problem = ("t_g_s",), (f"t_g_s = {self.t_g_s!r} is not "
                                         "finite and nonnegative")
        else:
            return
        if source:
            problem = " and ".join(dict.fromkeys(source[k] for k in keys)
                                   ) + ": " + problem
        raise ValueError(problem)


@dataclass(frozen=True, eq=False)
class Schedule(Table):
    """Per-flow piecewise-constant weights (schedule.csv): each row sets
    its flow's weight from from_us on. Rows are sorted by flow, then
    from_us, a flow's first at 0; a flow without rows has default_weight."""

    flow_id: np.ndarray = column("d", np.int64)
    from_us: np.ndarray = column("d", np.int64)
    weight: np.ndarray = column("r", np.float64)
    default_weight: float = 1.0

    def weights(self, flow_id, t_us) -> np.ndarray:
        """Weight in force for each packet (flow_id[k], t_us[k]): that of
        the flow's last row with from_us <= t_us, so of two rows at one
        instant the later one holds (before 0, the first row's)."""
        flow_id, t_us = np.asarray(flow_id), np.asarray(t_us)
        w = np.full(t_us.shape, self.default_weight)
        for f in unique(flow_id).tolist():
            a, b = np.searchsorted(self.flow_id, [f, f + 1])  # f's rows
            if a < b:
                m = flow_id == f
                pos = np.searchsorted(self.from_us[a:b], t_us[m],
                                      side="right") - 1
                w[m] = self.weight[a:b][pos.clip(0)]
        return w


@dataclass(frozen=True, eq=False)
class QueueEventLog(Table):
    """Per-packet service log (queue_log.csv), aligned with the replayed
    trace's packet order."""

    flow_id: np.ndarray = column("d", np.int64)
    clique_id: np.ndarray = column("d", np.int64)
    enqueue_us: np.ndarray = column("d", np.int64)
    dequeue_us: np.ndarray = column(".17g", np.float64)
    complete_us: np.ndarray = column(".17g", np.float64)
    benign: np.ndarray = column("d", bool)

    @property
    def n(self) -> int:
        return len(self)

    def delays_us(self) -> np.ndarray:
        return self.dequeue_us - self.enqueue_us


def replay(trace: Trace, capacity_bps: float,
           schedule: Schedule | None = None) -> QueueEventLog:
    """Replay a trace through one WFQ server per clique.

    capacity_bps is in bytes per second. Returns a log whose rows align with
    the trace's packet order. The cliques are dealt to forks.deal, one
    job each.
    """
    if capacity_bps <= 0:
        raise ValueError("capacity must be positive")
    if schedule is None:
        schedule = Schedule((), (), ())
    ts = trace.ts_us
    fid = trace.flow_id
    ln = trace.len_bytes
    cq = trace.clique_id
    cap = float(capacity_bps)

    cliques = [np.flatnonzero(cq == c) for c in unique(cq)]

    def serve(idx):
        return _replay_clique(ts[idx], fid[idx], ln[idx], cap, schedule)

    sizes = [idx.size for idx in cliques]
    dequeue = np.empty(trace.n_packets)
    # deal gives the cliques' dequeue instants one clique after another
    dequeue[np.concatenate([np.empty(0, np.int64), *cliques])] = deal(
        [partial(serve, idx) for idx in cliques], sizes, sizes)
    # the kernel advanced t_free by these same additions, so completions
    # are exact
    complete = dequeue + ln * (1e6 / cap)
    benign = np.isin(fid, [f for f, info in trace.flow_table.items()
                           if info.label == BENIGN])
    return QueueEventLog(fid, cq, ts, dequeue, complete, benign)


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
                # packet i waits alone: the heap would pop it at once. No
                # tag served is above virtual, so its flow's is not needed
                virtual += inc[i]
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


def gate_controller(scores, config: GateConfig,
                    window_us: int) -> Schedule:
    """The weight schedule of every scored flow, from the flow_id, window
    and z columns of scores. The gate drops a flow's weight to omega_minus
    at the start of each run of consecutive flagged windows (a window
    without a row is not flagged) and holds it until max(flag-clear time,
    activation + t_g), rounded up to a whole microsecond; re-activation
    restarts the quarantine clock, and overlapping spans merge."""
    config.validate()
    flows = unique(scores.flow_id)
    f, w = scores.flow_id[scores.z], scores.window[scores.z]
    order = np.lexsort((w, f))
    f, w = f[order], w[order]
    # where runs of flagged windows start; the row before a start ends one
    run = np.ones(f.size, dtype=bool)
    run[1:] = (f[1:] != f[:-1]) | (w[1:] > w[:-1] + 1)
    last = np.flatnonzero(np.roll(run, -1))
    f, start = f[run], w[run] * window_us
    release = np.maximum((w[last] + 1) * window_us,
                         start + config.t_g_s * 1e6)
    # a flow's releases never decrease, so a run merges into the span
    # before it when it starts by that span's last release
    span = np.ones(f.size, dtype=bool)
    span[1:] = (f[1:] != f[:-1]) | (start[1:] > release[:-1])
    last = np.flatnonzero(np.roll(span, -1))
    f, start = f[span], start[span]
    end = np.ceil(release[last]).astype(np.int64)
    # each flow's row at 0, each span's end, then each later span's start:
    # sorted stably, a start at the instant of the end before it comes last
    late = start > 0
    fid = np.concatenate([flows, f, f[late]])
    from_us = np.concatenate([np.zeros(flows.size, np.int64), end,
                              start[late]])
    weight = np.concatenate([
        np.where(np.isin(flows, f[~late]), config.omega_minus,
                 config.omega_0),
        np.full(f.size, config.omega_0),
        np.full(int(late.sum()), config.omega_minus)])
    rows = np.lexsort((from_us, fid))
    return Schedule(fid[rows], from_us[rows], weight[rows],
                    default_weight=config.omega_0)


def delay_percentile(log: QueueEventLog, pct: float,
                     benign_only: bool = False) -> float:
    """Nearest-rank percentile of per-packet delay (microseconds), over the
    benign packets only when benign_only is set."""
    if not (0.0 < pct <= 100.0):
        raise ValueError("pct must be in (0, 100]")
    d = log.delays_us()
    if benign_only:
        d = d[log.benign]
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

def write_queue_log(path, log: QueueEventLog) -> str:
    """write_table of a queue log: returns the CSV's sha256."""
    return write_table(path, log)


def read_queue_log(path, recorded) -> QueueEventLog:
    """read_table of a queue log bound to the record recorded names."""
    return read_table(QueueEventLog, path, recorded)


def write_schedule(path, schedule: Schedule) -> None:
    write_table(path, schedule)
